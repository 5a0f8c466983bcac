(** The schedule checks of {!Sched_model.Schedule.validate}, made row by
    row over a run's decision stream instead of over a whole schedule.

    A retiring session never materializes a schedule, so the batch
    validator cannot see it.  This checker re-derives each segment from
    the flight-recorder rows the driver emits (a start opens one on its
    machine; the job's complete, reject or restart closes it) and checks
    it against the jobs it was fed:

    - a row's machine is in the fleet, a segment has [start < stop] and a
      positive finite rate ({!Violation.Segment_bounds});
    - no job starts before its release ({!Violation.Release_respect});
    - no start on a machine that is running a job or before the machine's
      last segment stops ({!Violation.Machine_overlap});
    - a completed job ran as one segment ({!Violation.Non_preemption},
      unless restarts are allowed), on the machine its complete row names,
      processing its size there within the validator's relative 1e-6; a
      rejection comes at or after release, a rejected or restarted job's
      segments do strictly partial work, and the mid-run flag matches the
      segments laid ({!Violation.Outcome_consistency});
    - every fed job gets exactly one terminal row (complete or reject),
      every row names a job in flight, and nothing is left running at
      {!close} ({!Violation.Exactly_once}).

    Deadlines are not checked.  State is O(m) per-machine cells plus one
    entry per job in flight, dropped at its terminal row.  Like
    {!Oracle}, it shares no code with the simulator it audits. *)

open Sched_model

type t

val create : ?allow_restarts:bool -> machines:int -> unit -> t
(** A checker over a fleet of [machines].  [allow_restarts] (default
    [false]) is the validator's relaxation: a job may carry strictly
    partial aborted attempts before its final run. *)

val feed : t -> Job.t -> unit
(** The job enters the stream: its rows may follow.  Feeding an id that
    is still in flight is an {!Violation.Exactly_once} violation. *)

val rows : t -> Sched_obs.Recorder.t -> newest:int -> unit
(** Checks the recorder's [newest] retained rows, oldest first.  Rows
    must come in the order the driver wrote them, each after the
    {!feed} of its job. *)

val close : t -> unit
(** The stream has ended: every fed job must have had its terminal row
    and no machine may still be running one. *)

val violations : t -> Violation.t list
(** Everything found so far, in the order found. *)
