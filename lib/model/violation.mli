(** Structured rule violations.

    {!Validator} and the oracle's budget and metric checks report failures
    as a list of these records instead of booleans or bare strings, so
    callers can aggregate by check (telemetry counters), sort
    deterministically (shrinker fixpoints, byte-identical fuzz reports at
    any pool width) and still print a human-readable diagnosis. *)

(** The invariant families the checks enforce; {!check_name} gives the
    stable label used for telemetry counters and corpus metadata. *)
type check =
  | Segment_bounds  (** Segment on a known machine, [start < stop], finite positive speed. *)
  | Release_respect  (** No segment begins before its job's release. *)
  | Machine_overlap  (** Two segments on one machine intersect in time. *)
  | Non_preemption  (** A completed job has more than its single final segment. *)
  | Outcome_consistency
      (** Outcome record disagrees with the laid segments (machine, start,
          finish, processed volume, rejection causality). *)
  | Exactly_once
      (** A job is neither cleanly served nor cleanly rejected: stray
          segments for settled jobs, or a segment of an unknown job. *)
  | Deadline  (** A completed job finishes after its deadline. *)
  | Rejection_budget  (** Rejected fraction exceeds the policy's budget. *)
  | Metric_drift
      (** Incremental metrics disagree with a from-scratch recomputation. *)

val check_name : check -> string
(** Stable kebab-case label, e.g. ["machine-overlap"]. *)

(* rejlint: allow test-only-export — tests check with it that check labels are distinct *)
val all_checks : check list
(** Every constructor, in a fixed order (the order counters export in). *)

type t = {
  check : check;
  job : Job.id option;
  machine : Machine.id option;
  at : Time.t option;  (** The instant the violation is anchored at, if any. *)
  detail : string;
}

val make : ?job:Job.id -> ?machine:Machine.id -> ?at:Time.t -> check -> string -> t

val compare : t -> t -> int
(** Total order: check, then job, machine, time and finally detail — so a
    sorted violation list is a canonical artifact. *)

val pp_list : Format.formatter -> t list -> unit
(** One violation per line, prefixed with a count header. *)
