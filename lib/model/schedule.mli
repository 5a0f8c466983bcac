(** Schedules: the ground-truth record of a run.

    A schedule pairs a per-job outcome with the exact execution segments laid
    down on each machine — including the partial segment of a job that was
    interrupted and rejected mid-run.  The {!validate} checker is the
    arbiter used by every test: any policy, the paper's or a baseline, must
    produce a schedule this module accepts. *)

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

(* rejlint: allow test-only-export — tests assert schedules with it (production: assert_valid) *)
val validate :
  ?allow_parallel:bool ->
  ?allow_restarts:bool ->
  ?check_deadlines:bool ->
  t ->
  (unit, string list) result
(** Checks, returning all violations found:
    - segments lie on existing machines, have [start < stop], positive speed,
      and never begin before the job's release;
    - unless [allow_parallel] (the Section 4 model), segments on one machine
      never overlap;
    - a completed job has exactly one segment (non-preemption!) matching its
      recorded machine/start/finish, whose processed volume equals its size
      on that machine;
    - a rejected job has at most one (partial) segment, ending no later than
      the rejection time, processing strictly less than its size;
    - with [check_deadlines], completed jobs finish by their deadline.
    With [allow_restarts] (the restart relaxation), a job may carry extra
    {e aborted} segments — strictly partial executions killed before the
    final run — in addition to the rules above.
    Defaults: [allow_parallel = false], [allow_restarts = false],
    [check_deadlines] = instance {!Instance.has_deadlines}. *)

val assert_valid :
  ?allow_parallel:bool -> ?allow_restarts:bool -> ?check_deadlines:bool -> t -> unit
(** Raises [Failure] with the violation list when invalid. *)
