(** The Lemma 1 adversary: immediate-rejection policies are
    [Omega(sqrt Delta)]-competitive.

    Construction (single machine, parameters [eps] and [L]):
    [ceil(1/eps)] "big" jobs of length [L] are released at time 0.  The
    adversary watches when the algorithm starts the first big job — call it
    [t0] — and, provided [t0 < L^2], releases [L^2] "small" jobs of length
    [1/L], one every [1/L] time units starting at [t0].  An
    immediate-rejection policy is stuck: it cannot revoke the running big
    job, so every small job waits behind it, for a total flow of
    [Omega(L^3)] against the adversary's [O(L^2)]; with [Delta = L^2] the
    ratio is [Omega(sqrt Delta)].  (If instead the algorithm idles past
    [L^2], the big jobs alone already cost it [Omega(L)] times the
    adversary.)

    The adversary is adaptive only through [t0], so running the policy on
    the big-jobs-only prefix and then replaying it on the full instance is
    equivalent to the interactive game for deterministic policies. *)

open Sched_model

type result = {
  instance : Instance.t;  (** Big jobs plus the adaptively-placed small jobs. *)
  observed_start : float;  (** [t0], when the policy first started a big job. *)
  adversary_cost : float;
      (** Total flow-time of the adversary's explicit schedule (small jobs
          at release back-to-back, big jobs afterwards) — a feasible
          schedule, hence an upper bound on OPT. *)
  delta : float;  (** [L^2], the paper's processing-time ratio. *)
  big_count : int;
  small_count : int;
}

val build : eps:float -> l:float -> observed_start:float -> result
(** The deterministic instance given the observed start [t0]. *)

val run_two_phase : run:(Instance.t -> Schedule.t) -> eps:float -> l:float -> result * Schedule.t
(** Plays the full game against a deterministic policy: probes for [t0],
    builds the final instance, and returns it together with the policy's
    schedule on it. *)
