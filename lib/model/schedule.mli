(** Schedules: the ground-truth record of a run.

    A schedule pairs a per-job outcome with the exact execution segments laid
    down on each machine — including the partial segment of a job that was
    interrupted and rejected mid-run.  Every schedule, from any policy, the
    paper's or a baseline, must pass {!violations}: the model's rules, which
    {!Validator} holds. *)

type segment = {
  job : Job.id;
  machine : Machine.id;
  start : Time.t;
  stop : Time.t;
  speed : float;  (** Volume per unit time; [stop - start] times this is the
                      volume processed in the segment. *)
}

type t = private {
  instance : Instance.t;
  outcomes : Outcome.t array;  (** Indexed by job id. *)
  segments : segment list;  (** All machines, unordered. *)
}

(** {1 Construction} *)

type builder

val builder : Instance.t -> builder

val add_segment : builder -> segment -> unit
val set_outcome : builder -> Job.id -> Outcome.t -> unit

val finalize : builder -> t
(** Raises [Invalid_argument] when some job has no outcome or an outcome was
    set twice. *)

(** {1 Accessors} *)

val outcome : t -> Job.id -> Outcome.t
val segments_of_machine : t -> Machine.id -> segment list
(** Sorted by start time, ties by job id.  O(S): it filters the whole
    segment list, so a loop over machines wants {!segments_by_machine}. *)

val segments_by_machine : t -> segment list array
(** Every machine's {!segments_of_machine}, indexed by machine, built in
    one pass over the segments. *)

(** {1 Validation} *)

val violations : ?mode:Validator.mode -> t -> Violation.t list
(** Replays the schedule into a {!Validator}: feeds every job, lays the
    segments in start order, settles each job by its outcome and closes.
    Returns what the validator found, in the order found; [[]] is a
    valid schedule. *)

val assert_valid :
  ?allow_parallel:bool -> ?allow_restarts:bool -> ?check_deadlines:bool -> t -> unit
(** {!violations} under {!Validator.mode} of the same arguments; raises
    [Failure] with the violation list when there is one. *)
