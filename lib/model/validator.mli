(** The model's structural rules, written once.

    A run is told to the validator as it happened: each job is {!feed}
    when it arrives, each execution segment is {!lay}ed whole (machine,
    start, stop, rate), each job is settled by {!complete} or {!reject},
    and {!close} ends the run.  Two adapters do the telling:
    {!Schedule.violations} replays a whole schedule in start order, and
    [Sched_check.Stream_check] decodes a run's recorder rows as they are
    written.  The rules:

    - a segment lies on a machine of the fleet, has [start < stop] and a
      positive finite rate ({!Violation.Segment_bounds});
    - no segment begins before its job's release
      ({!Violation.Release_respect});
    - unless [allow_parallel] (the Section 4 model), no segment begins
      before an earlier one on its machine stops
      ({!Violation.Machine_overlap});
    - a completed job ran as one segment ({!Violation.Non_preemption},
      unless [allow_restarts]), on the machine and over the interval its
      outcome records, processing its size there; a rejection comes at or
      after release, a rejected job's segment ends by the rejection, an
      aborted or rejected segment does strictly partial work, and the
      mid-run flag matches the segments laid
      ({!Violation.Outcome_consistency});
    - every fed job is settled exactly once, every segment and settlement
      names a job in flight, and a rejected job has at most one segment
      unless [allow_restarts] ({!Violation.Exactly_once});
    - with [check_deadlines], a completed job that carries a deadline
      finishes by it ({!Violation.Deadline}).

    Every time is compared through {!Time}'s tolerance, every processed
    volume against its size through one relative tolerance, and "did its
    full size" through one absolute slack.  {!feed}, {!lay} and each
    settlement cost O(1) expected: the jobs in flight sit in a hash table
    keyed by id, their ids packed in an array that {!close} sorts, so
    [close] costs O(k log k) for k jobs left unsettled and reports them
    in ascending id order.  State is O(m) per-machine cells plus one
    entry per job in flight, dropped when it settles, and the id array,
    as long as the most jobs ever in flight at once.  The
    validator is the simulator's independent second opinion: it shares no
    code with the driver or its flat state. *)

(** {1 Mode} *)

type mode = {
  allow_parallel : bool;  (** Section 4 model: segments on one machine may overlap. *)
  allow_restarts : bool;
      (** Restart relaxation: a job may carry strictly partial aborted
          segments before its final run, or before its rejection. *)
  check_deadlines : bool;  (** Completed jobs that carry a deadline must meet it. *)
}

val mode :
  ?allow_parallel:bool -> ?allow_restarts:bool -> ?check_deadlines:bool -> unit -> mode
(** Defaults: [allow_parallel = false], [allow_restarts = false],
    [check_deadlines = true]. *)

(** {1 Checking a run} *)

type t

val create : ?mode:mode -> machines:int -> unit -> t
(** A validator over a fleet of [machines] (default mode: {!mode} [()]). *)

val feed : t -> Job.t -> unit
(** The job enters the run.  Feeding an id still in flight is an
    {!Violation.Exactly_once} violation. *)

val in_flight : t -> Job.id -> bool
(** Fed and not yet settled. *)

val lay : t -> job:Job.id -> machine:Machine.id -> start:Time.t -> stop:Time.t -> rate:float -> unit
(** One execution segment of a job in flight.  A job's segments come in
    start order, and so do the segments on one machine; each earlier
    segment of the job is an aborted attempt. *)

val complete : t -> job:Job.id -> machine:Machine.id -> start:Time.t -> finish:Time.t -> unit
(** Settles the job as completed with this outcome; its last segment is
    the final run. *)

val reject : t -> job:Job.id -> time:Time.t -> was_running:bool -> unit
(** Settles the job as rejected at [time]; [was_running] is the
    outcome's mid-run flag. *)

val close : t -> unit
(** The run has ended: every fed job must be settled. *)

val report :
  t -> ?job:Job.id -> ?machine:Machine.id -> ?at:Time.t -> Violation.check ->
  ('a, unit, string, unit) format4 -> 'a
(** Records a violation found by an adapter's own checks, in order with
    the validator's. *)

val violations : t -> Violation.t list
(** Everything found so far, in the order found. *)
