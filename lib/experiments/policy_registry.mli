(** The policy registry: every shipped scheduling policy packaged as a
    plain instance runner, with its validation mode and —
    where one exists — its scan-based seed-reference mirror.

    The registry powers the cross-cutting test layers: the validator suite
    runs every entry over a shared workload set, and the differential suite
    checks each optimized entry against its [reference]. *)

open Sched_model
open Sched_sim

type stream_session = {
  ss_feed : Job.t -> unit;
  ss_drain_until : Time.t -> unit;
  ss_next_key : unit -> Time.t;
  ss_fed : unit -> int;
  ss_live : unit -> Driver.live_metrics;
  ss_close : unit -> Schedule.t option * Driver.live_metrics;
  ss_freeze : unit -> string;
  ss_trace : unit -> Trace.t option;
}
(** A live {!Sched_sim.Driver.Session} with the policy-state type
    erased: plain closures over one session, for policy-generic callers
    (the serve loop, the stream differential suite, the fuzzer).  Field
    semantics are exactly the Session operations of the same names;
    [ss_close] drops the policy state and returns the live-metrics
    snapshot alongside the (retirement-dependent) schedule. *)

type entry = {
  name : string;
  allow_restarts : bool;
      (** Whether schedules need the validator's [allow_restarts]
          relaxation (the policy kills and re-runs jobs). *)
  run :
    ?recorder:Sched_obs.Recorder.t -> ?check:bool -> Instance.t -> Schedule.t * Driver.live_metrics;
      (** {!Sched_sim.Driver.run} on a fresh policy value, returning the
          schedule and the driver's incremental metrics.  [?check]
          (default [false]) runs the oracle audit; [?recorder] attaches a
          flight recorder — the replay path forensics capture rides on. *)
  open_stream :
    ?trace:Trace.t ->
    ?obs:Sched_obs.Obs.t ->
    ?recorder:Sched_obs.Recorder.t ->
    ?check:bool ->
    ?retire:bool ->
    ?name:string ->
    machines:Machine.t array ->
    unit ->
    stream_session;
      (** A fresh incremental session over the fleet under this entry's
          policy — the engine behind [rejsched serve].  Options are
          {!Sched_sim.Driver.Session.open_session}'s. *)
  restore_stream : ?obs:Sched_obs.Obs.t -> string -> stream_session;
      (** Rebuilds a session from a {!Sched_sim.Driver.Session.freeze}
          payload (the caller unwraps the {!Sched_sim.Snapshot} container
          and routes by its policy name first).  Raises
          [Invalid_argument] on a payload frozen under another policy. *)
  reference : (Instance.t -> Schedule.t) option;
      (** The {!Sched_baselines.Seed_reference} mirror: same decisions via
          linear scans; must produce the identical schedule. *)
  budget : Sched_check.Oracle.budget option;
      (** The rejection budget the policy's theorem guarantees at this
          [eps] ([Count_fraction 0.] for policies that never reject;
          [None] for heuristics with no bound, e.g. threshold-based
          immediate rejection).  The oracle and fuzzer enforce it on every
          audited run. *)
}

val eps : float
(** The rejection parameter every registry entry is instantiated with. *)

val all : entry list
val find : string -> entry option