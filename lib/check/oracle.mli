(** The schedule oracle: pure, from-scratch validation of a
    {!Sched_model.Schedule.t} against its instance.

    Every checker re-derives the property it guards from the raw segment
    list and outcome array — independently of the incremental bookkeeping
    in the simulator — and reports structured {!Violation.t} records.  An
    empty list means the schedule is oracle-clean.

    The structural checkers deliberately re-implement (rather than call)
    {!Sched_model.Schedule.validate}: the oracle is the second opinion
    that keeps the fast path honest, so it must not share code with the
    layer it audits. *)

open Sched_model

(** {1 Validation mode} *)

type mode = {
  allow_parallel : bool;  (** Section 4 model: segments on one machine may overlap. *)
  allow_restarts : bool;
      (** Restart relaxation: jobs may carry aborted partial segments
          before their final run. *)
  check_deadlines : bool option;
      (** [None] (default) checks iff the instance carries deadlines. *)
}

val mode :
  ?allow_parallel:bool -> ?allow_restarts:bool -> ?check_deadlines:bool -> unit -> mode

(** {1 Rejection budgets} *)

type budget =
  | Count_fraction of float
      (** At most this fraction of the jobs may be rejected (Theorem 1's
          [2 eps]). *)
  | Weight_fraction of float
      (** At most this fraction of the total weight may be rejected
          (the weighted and flow+energy policies' [2 eps] / [eps]). *)

(** {1 Checkers}

    Each returns its violations sorted by {!Violation.compare}; an empty
    list is a pass. *)

(* rejlint: allow test-only-export — tests run this one checker alone on a planted fault *)
val structural : ?mode:mode -> Schedule.t -> Violation.t list
(** Segment sanity, release respect, per-machine disjointness,
    non-preemption, outcome/segment consistency, exactly-once coverage
    and (per [mode]) deadlines. *)

(* rejlint: allow test-only-export — tests run this one checker alone on a planted fault *)
val budget_check : budget -> Schedule.t -> Violation.t list
(** Recounts rejections from the outcome array and compares against the
    budget (with 1e-9 absolute slack on the fraction, matching the
    theorem-level tests). *)

type snapshot = {
  flow : Metrics.flow;
  energy : float;
  rejection : Metrics.rejection;
  makespan : Time.t;
}
(** A claimed set of objective values — in practice the simulator's
    incremental {!Sched_sim.Driver.live_metrics}, mirrored here so this
    library stays below the simulator in the dependency order. *)

(* rejlint: allow test-only-export — tests run this one checker alone on a planted fault *)
val reconcile : ?tol:float -> snapshot -> Schedule.t -> Violation.t list
(** Recomputes every metric from scratch ({!Sched_model.Metrics}) and
    compares field by field.  [tol] is a relative tolerance (default
    [1e-9]: float accumulation order differs between the incremental and
    post-hoc passes); pass [~tol:0.] on dyadic instances to demand
    bit-for-bit agreement.  Integer fields (rejection counts) are always
    compared exactly. *)

val check :
  ?mode:mode -> ?budget:budget -> ?live:snapshot -> ?tol:float -> Schedule.t -> Violation.t list
(** The full suite: {!structural}, then {!budget_check} (when a budget is
    given), then {!reconcile} (when a snapshot is given). *)

(** {1 Reporting} *)

val report : Violation.t list -> string
(** Multi-line human-readable rendering (deterministic: input order is
    preserved, and the checkers sort). *)

exception Violations of string * Violation.t list
(** Carried by {!assert_clean}; the string names the run being checked. *)

val assert_clean : what:string -> Violation.t list -> unit
(** Raises {!Violations} when the list is non-empty. *)
