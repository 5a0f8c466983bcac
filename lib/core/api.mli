(** The one-call entry point for Theorem 1's algorithm.

    The runner returns the validated schedule together with the metrics a
    caller typically wants and the guarantee it should be checked
    against.  The examples are built on this module; the CLI and the
    experiments use the underlying modules directly for instrumentation. *)

open Sched_model

type flow_result = {
  schedule : Schedule.t;
  flow : Metrics.flow;
  rejection : Metrics.rejection;
  competitive_bound : float;
      (** [2((1+eps_eff)/eps_eff)^2] at the effective epsilon
          [1/ceil(1/eps)] the integral counters realize — the ratio the
          theorem actually proves for this run (Theorem 1). *)
  rejection_budget : float;  (** [2 eps] (Theorem 1). *)
}

val run_flow : ?eps:float -> Instance.t -> flow_result
(** Theorem 1 algorithm; [eps] defaults to [0.25].  The returned schedule
    has been checked by {!Sched_model.Schedule.validate}. *)
