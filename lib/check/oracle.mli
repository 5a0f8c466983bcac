(** The schedule oracle: from-scratch validation of a
    {!Sched_model.Schedule.t} against its instance.

    The structural rules are {!Sched_model.Validator}'s, replayed over
    the schedule by {!Sched_model.Schedule.violations}; the oracle adds
    the theorem's rejection budget and a recomputation of every metric.
    Each reports structured {!Sched_model.Violation.t} records, and an
    empty list means the schedule is oracle-clean.  The validator shares
    no code with the simulator it audits, so the oracle stays the second
    opinion that keeps the fast path honest. *)

open Sched_model

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
val budget_check : budget -> Schedule.t -> Violation.t list
(** Recounts rejections from the outcome array and compares against the
    budget (with 1e-9 absolute slack on the fraction, matching the
    theorem-level tests). *)

(* rejlint: allow test-only-export — tests run this one checker alone on a planted fault *)
val reconcile : ?tol:float -> Metrics.live -> Schedule.t -> Violation.t list
(** Recomputes every metric from scratch ({!Sched_model.Metrics}) and
    compares it field by field with the claimed values — in practice
    the simulator's incremental {!Sched_sim.Driver.live_metrics}.
    [tol] is a relative tolerance (default [1e-9]: float accumulation
    order differs between the incremental and post-hoc passes); pass
    [~tol:0.] on dyadic instances to demand bit-for-bit agreement.
    Integer fields (rejection counts) are always compared exactly. *)

val check :
  ?mode:Validator.mode -> ?budget:budget -> ?live:Metrics.live -> ?tol:float -> Schedule.t ->
  Violation.t list
(** The full suite: {!Sched_model.Schedule.violations} under [mode]
    (default {!Sched_model.Validator.mode} [()]), sorted by
    {!Violation.compare} with duplicates dropped, then {!budget_check}
    (when a budget is given), then {!reconcile} (when live metrics are
    given). *)

(** {1 Reporting} *)

val report : Violation.t list -> string
(** Multi-line human-readable rendering (deterministic: input order is
    preserved, and the checkers sort). *)
