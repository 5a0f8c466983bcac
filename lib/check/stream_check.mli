(** {!Sched_model.Validator}'s rules over a run's decision stream, row by
    row, instead of over a whole schedule.

    A retiring session never materializes a schedule.  This adapter
    decodes the flight-recorder rows the driver emits into the validator:
    a start opens a segment on its machine; the job's complete, reject or
    restart row closes it and lays it whole (a reject or restart at the
    start's instant, within {!Sched_model.Time}'s tolerance, lays none, as
    the driver does); complete and reject rows settle the job.  It keeps
    the checks only rows can fail:

    - a row names a machine of the fleet ({!Violation.Segment_bounds});
    - a start lands on an idle machine ({!Violation.Machine_overlap});
    - a complete row names the machine running its job and a restart row
      a running job ({!Violation.Outcome_consistency});
    - a dispatch row names a job in flight, and no machine is still
      running a job at {!close} ({!Violation.Exactly_once}).

    State is the validator's plus three cells per machine: O(m + jobs in
    flight). *)

open Sched_model

type t

val create : ?mode:Validator.mode -> machines:int -> unit -> t
(** A checker over a fleet of [machines], validating under [mode]
    (default {!Validator.mode} [()]). *)

val feed : t -> Job.t -> unit
(** The job enters the stream: its rows may follow ({!Validator.feed}). *)

val rows : t -> Sched_obs.Recorder.t -> newest:int -> unit
(** Checks the recorder's [newest] retained rows, oldest first.  Rows
    must come in the order the driver wrote them, each after the
    {!feed} of its job. *)

val close : t -> unit
(** The stream has ended: no machine may still be running a job, and
    every fed job must be settled. *)

val violations : t -> Violation.t list
(** Everything found so far, in the order found. *)
