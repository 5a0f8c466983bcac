(** The policy registry: every shipped scheduling policy packaged as a
    plain instance runner, with its validation mode and —
    where one exists — its scan-based seed-reference mirror.

    It is the one policy table and the one way to run a policy: the CLI
    resolves every policy name here ({!find}, aliases included); the
    experiments and examples run an entry's [run] and check the result
    with {!audit} (an ablation variant outside {!all} is built with
    {!pack}); and the cross-cutting test layers walk {!all}: the
    validator suite runs every entry over a shared workload set, and
    the differential suite checks each optimized entry against its
    [reference]. *)

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
    ?obs:Sched_obs.Obs.t ->
    ?recorder:Sched_obs.Recorder.t ->
    Instance.t ->
    Schedule.t * Driver.live_metrics;
      (** {!Sched_sim.Driver.run} on a fresh policy value, returning the
          schedule and the driver's incremental metrics.  [?obs] records
          telemetry as in {!Sched_sim.Driver.run}; [?recorder] attaches a
          flight recorder — the replay path forensics capture rides on. *)
  open_stream :
    ?trace:Trace.t ->
    ?obs:Sched_obs.Obs.t ->
    ?recorder:Sched_obs.Recorder.t ->
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
          immediate rejection).  {!audit} enforces it. *)
}

val pack :
  ?reference:(unit -> 'r Driver.policy) ->
  ?budget:Sched_check.Oracle.budget ->
  ?allow_restarts:bool ->
  ?fleet:(Machine.t array -> Machine.t array) ->
  (unit -> 'a Driver.policy) ->
  string ->
  entry
(** [pack make_policy name]: the entry that runs a fresh [make_policy ()]
    per run or session.  [?fleet] (default the identity) maps the
    caller's machines to the ones the policy runs on, for [run],
    [open_stream] and [reference] alike — speed augmentation is a fleet.
    [?allow_restarts] defaults to [false]; without [?budget], {!audit}
    checks no rejection bound.  {!all} is built with it; experiments
    build their ablation variants with it. *)

val audit : entry -> Schedule.t -> Driver.live_metrics -> Sched_check.Violation.t list
(** The one audit of a finished run: {!Sched_check.Oracle.check} under
    the entry's [allow_restarts] relaxation, without deadlines (no
    entry promises to meet them), against the entry's [budget], with
    the live metrics reconciled against a recomputation from the
    schedule.  [[]] is a pass.  The fuzzer's [oracle] property is this
    audit; the tests apply it to batch, streamed and resumed runs. *)

val eps : float
(** The rejection parameter of {!all}'s entries. *)

val all : entry list
(** Every entry at {!eps}. *)

val aliases : (string * string) list
(** [(alias, name)]: the short names [rejsched run] has always taken
    ([thm1], [fifo], [esa], ...), each for one entry of {!all}. *)

val find : ?eps:float -> string -> entry option
(** The entry of that name or alias, instantiated at [?eps] (default
    {!eps}).  An [eps] a policy rejects raises [Invalid_argument] when
    that entry starts a run, not here. *)