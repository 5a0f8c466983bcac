(** Coverage-guided scenario fuzzing of every registered policy.

    Each {!Scenario} drawn from the worklist is expanded into an instance
    and every policy in the configured registry slice is run on it and
    audited five ways:

    - {b oracle}: {!Sched_experiments.Policy_registry.audit} — structural
      invariants, the policy's theorem rejection budget, and
      reconciliation of the driver's incremental metrics against a
      from-scratch recomputation;
    - {b permute}: re-presenting the job list in a shuffled order must
      yield a byte-identical schedule dump (the instance is canonicalized
      on construction, so any difference is hidden input-order dependence);
    - {b relabel}: renaming machines must leave the policy oracle-clean and
      within budget (schedules may legitimately differ — policies break
      argmin ties by machine id);
    - {b scale}: doubling the time unit (a power of two, hence exact in
      binary floating point) must scale total and weighted flow by exactly
      two and preserve every rejection decision;
    - {b rebatch}: streaming the same jobs through an incremental
      {!Sched_sim.Driver.Session} in arrival chunks (one at a time, a
      fixed stride, a varying stride) must reproduce the one-shot batch
      schedule byte for byte — how the stream is chopped is unobservable.

    Behavioural coverage — which (policy, family, feature-bits) triples
    have been observed, where the bits record rejections, mid-run
    rejections, multi-segment jobs, deadlines and non-unit weights — steers
    the walk: a scenario that exhibits a novel triple gets its
    {!Scenario.mutants} enqueued.

    Failures are shrunk by re-running the failing property on smaller
    instances (dropping job halves, single jobs, then whole machines, with
    ids renumbered) until no smaller instance still fails.

    Everything is deterministic for a fixed [seed] and [budget]: the
    worklist is FIFO, evaluation fans out through a
    {!Sched_stats.Pool} in fixed-size generations whose results are merged
    in input order, so reports are byte-identical at any pool width. *)

open Sched_model

type config = {
  seed : int;
  budget : int;  (** Maximum scenarios to evaluate. *)
  policies : Sched_experiments.Policy_registry.entry list;
  max_shrink : int;  (** Candidate evaluations allowed per failure shrink. *)
  max_failures : int;  (** Stop collecting (not evaluating) beyond this. *)
}

val config :
  ?budget:int ->
  ?policies:Sched_experiments.Policy_registry.entry list ->
  ?max_shrink:int ->
  ?max_failures:int ->
  seed:int ->
  unit ->
  config
(** Defaults: budget 60, the full registry, 400 shrink evaluations, 25
    collected failures. *)

type failure = {
  scenario : Scenario.t;
  policy : string;
  prop : string;  (** ["oracle" | "permute" | "relabel" | "scale" | "rebatch"]. *)
  detail : string;
  shrunk : Instance.t;  (** Smallest instance still failing [prop]. *)
  forensics : string;
      (** Flight-recorder dump of the shrunk repro: the failing policy is
          replayed with a {!Sched_obs.Recorder} attached and the last
          recorded decisions are kept as [rejsched.trace/2] NDJSON (the
          replay surviving an exception mid-run still leaves its events
          in the ring).  [""] when nothing could be replayed, e.g. for
          scenario-generation failures. *)
}

type report = {
  evaluated : int;  (** Scenarios actually expanded and run. *)
  coverage : int;  (** Distinct (policy, family, feature-bits) triples. *)
  failures : failure list;
}

val run :
  ?progress:(string -> unit) ->
  ?registry:Sched_obs.Registry.t ->
  pool:Sched_stats.Pool.t ->
  config ->
  report
(** Runs the fuzz loop on [pool].  [progress] receives one line per
    generation; [registry] accumulates {!Check_obs} counters for every
    audited schedule.  Pure aside from those two hooks. *)

val report_to_string : report -> string
(** Human-readable summary: totals plus one block per failure (shrunk
    instances are rendered separately via {!Sched_model.Serialize}). *)

(* rejlint: allow test-only-export — tests check the fuzzer's verdicts with it *)
val property_fails :
  Sched_experiments.Policy_registry.entry -> string -> Instance.t -> string option
(** [property_fails entry prop inst] re-evaluates one named property;
    [None] means it holds.  Exposed for corpus replay and the shrinker's
    tests. *)
