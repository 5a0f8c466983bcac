(** Event-driven online scheduling driver.

    The driver owns the ground truth of a run — clock, per-machine pending
    queues, the running job, laid-down segments — and consults a {!policy}
    for the three online decisions of the paper's model:

    - where to dispatch a job the instant it is released ({!field-on_arrival},
      which may also reject already-dispatched jobs, possibly mid-execution:
      the paper's Rejection Rules);
    - which pending job to start, and at which speed, when a machine goes
      idle ({!field-select}).

    Jobs are revealed to the policy only at their release times; the policy
    can inspect the driver state through a read-only {!view}.  Every run of a
    well-formed policy yields a {!Sched_model.Schedule.t}; runs that do not
    reject mid-run or restart satisfy the strict schedule validator, while
    restart/mid-run-rejection runs need its [allow_restarts] relaxation
    (partial segments of a job may precede its final run) — the registry test
    suite checks exactly this for every shipped policy, so all policies are
    measured on equal terms.

    {b Performance.}  The state lives in {!Flat_state}'s struct-of-arrays
    columns, so the event loop's steady state allocates nothing on the
    minor heap.  Per-machine pending sets are indexed heaps
    ({!Sched_sim.Pqueue.Iheap}), one per ordering the paper's policies
    query (SPT, weighted density, size-for-victim-selection, FIFO), so
    dispatch, start and arbitrary-id rejection are all O(log k) in the queue
    length; aggregate pending work/weight are maintained incrementally and
    read in O(1).  Policies should use the [pending_*] accessors below
    rather than scanning {!pending}.

    {b Behaviour pin.}  The corpus x policy goldens
    ([test/golden/golden.expected]) record every fuzz-corpus case's
    canonical schedule, recorder NDJSON and live metrics under every
    registry policy; [dune runtest] diffs a fresh run against them. *)

open Sched_model

(** {1 Read-only view of the driver state} *)

type view

val now : view -> Time.t

type running = { job : Job.t; started : Time.t; rate : float; finish : Time.t }
(** [rate] is volume processed per unit time (execution speed times the
    machine's nominal speed factor). *)

val running_on : view -> Machine.id -> running option

val remaining_volume : view -> Machine.id -> float
(** Remaining volume of the running job at the current instant; [0.] when
    idle. *)

val remaining_time : view -> Machine.id -> float
(** Time until the running job would finish; [0.] when idle. *)

val pending : view -> Machine.id -> Job.t list
(** Jobs dispatched to the machine, released, not started.  The order is
    deterministic for a given run history but otherwise unspecified; do not
    rely on it.  O(k) — prefer the indexed accessors below in hot paths. *)

val pending_iter : view -> Machine.id -> (Job.t -> unit) -> unit
(** Iterates the pending set without materializing a list (same
    deterministic-but-unspecified order as {!pending}). *)

val pending_count : view -> Machine.id -> int
(** O(1). *)

val pending_work : view -> Machine.id -> float
(** Sum of [p_ij] over jobs pending on machine [i]; O(1), maintained
    incrementally (exactly [0.] when the queue is empty). *)

val pending_weight : view -> Machine.id -> float
(** Sum of weights over jobs pending on machine [i]; O(1). *)

(** The head-of-order accessors below are O(1) reads of indexed heaps; all
    ties not listed break by smaller job id, making each answer independent
    of arrival/removal history. *)

val pending_shortest : view -> Machine.id -> Job.t option
(** Smallest [(p_ij, release)] — the SPT order of Theorem 1's policy. *)

val pending_longest : view -> Machine.id -> Job.t option
(** Largest [(p_ij, release, id)] (so ties resolve to the {e larger} id) —
    the Rule 2 victim of the unweighted policy. *)

val pending_densest : view -> Machine.id -> Job.t option
(** Largest weighted density [w_j / p_ij] (ties: earlier release first) —
    the highest-density-first order of the weighted and energy policies. *)

val pending_longest_tie_id : view -> Machine.id -> Job.t option
(** Largest [p_ij], ties by {e larger} id — the victim order of the
    weighted policy's rejection rule. *)

val pending_earliest : view -> Machine.id -> Job.t option
(** Smallest [(release, id)] — FIFO order. *)

(** {1 Incremental metrics} *)

type live_metrics = {
  flow : Metrics.flow;
  energy : float;
  rejection : Metrics.rejection;
  makespan : Time.t;
}
(** Objective values maintained incrementally as segments are laid down and
    outcomes recorded — no post-hoc pass over the schedule.  Agrees with the
    corresponding {!Sched_model.Metrics} recomputation up to float rounding
    (the accumulation order differs); the differential tests pin the
    agreement at 1e-9 relative error. *)

val live : view -> live_metrics
(** Snapshot of the incremental metrics at the current instant.  Counts only
    what has happened so far: jobs still pending or running contribute
    nothing yet. *)

(** {1 Policy interface} *)

type decision = {
  dispatch_to : Machine.id;
  reject : Job.id list;
      (** Jobs to reject right now; each must currently be dispatched
          (pending or running) — the newly arrived job, just dispatched, may
          be among them.  Order is respected. *)
  restart : Job.id list;
      (** Running jobs to kill and return to their machine's pending queue;
          completed work is lost (the restart relaxation the paper's
          conclusion proposes exploring).  Processed after [reject]. *)
}

val dispatch : Machine.id -> decision
(** Plain dispatch with no rejection or restart. *)

type start = { job : Job.id; speed : float }
(** [speed] multiplies the machine's nominal speed; the flow-time policies
    use [1.0], the speed-scaling policy of the paper's Section 3 chooses
    it per start. *)

type 'a policy = {
  name : string;
  init : Instance.t -> 'a;
  on_arrival : 'a -> view -> Job.t -> decision;
  select : 'a -> view -> Machine.id -> start option;
      (** Called whenever [machine] is idle and may start work (after an
          arrival, completion or rejection).  [None] leaves it idle until
          the next event.  The chosen job must be pending on that machine
          and the speed positive. *)
}

(** {1 Running}

    {b Telemetry.}  Passing [?obs] (a {!Sched_obs.Obs.t}) makes the driver
    record, into the handle's registry:

    - counters [sched_dispatch_total], [sched_start_total],
      [sched_complete_total], [sched_reject_total],
      [sched_reject_midrun_total], [sched_restart_total] — incremented at
      exactly the sites that emit the corresponding {!Trace} events, so they
      reconcile with the trace and with {!Sched_model.Metrics.rejection};
    - gauges [sched_pending_jobs{machine="i"}] (dispatched, not yet started
      or rejected; restarts re-enter) and [sched_inflight_jobs{machine="i"}]
      (dispatched, not yet completed or rejected);
    - when the handle's sink aggregates spans ({!Sched_obs.Obs.timed}), a
      duration histogram [obs_phase_seconds{phase=...}] over phases
      [on_arrival], [select], [segment] and [heap];
    - counters [sched_flat_loop_minor_words_total] /
      [sched_flat_loop_events_total] — the [Gc.minor_words] delta across
      the event loop and the events processed, whose ratio is the
      allocations-per-event figure the bench and the allocation-regression
      test gate on.

    Telemetry is strictly observational: the schedule, policy state and
    trace are byte-identical with and without [?obs], and the default
    {!Sched_obs.Sink.null} sink never reads a clock.

    {b Flight recorder.}  Passing [?recorder] (a {!Sched_obs.Recorder.t})
    makes the driver write one ring entry per dispatch / start / complete
    / reject / restart event, carrying decision provenance the counters
    lose: the candidate machine set and queue score behind each dispatch,
    and the theorem-budget counters (rejections and rejected weight so
    far) at each rejection.  Recorder contents are pinned by the goldens,
    and schedules are byte-identical with the recorder on or off.  The
    write path is allocation-free and [\@rejlint.hot]-proven, so attaching
    a recorder keeps the words-per-event ceilings.  Export with
    {!Trace_export} (NDJSON, [rejsched.trace/2]) or {!Perfetto} (Chrome
    [trace_event] JSON). *)

(** {b Oracle auditing.}  Passing [?check:true] runs the independent
    {!Sched_check.Oracle} over the finished schedule before it is returned:
    every structural invariant (non-preemption — relaxed automatically when
    the run actually restarted a job — machine disjointness, release
    respect, outcome consistency, deadlines) plus a reconciliation of the
    incremental {!live_metrics} against a from-scratch
    {!Sched_model.Metrics} recomputation at 1e-9 relative tolerance.  A
    violation raises {!Sched_check.Oracle.Violations}; with [?obs] the
    verdict is also recorded as [sched_check_*] counters; with
    [?recorder] the violation message carries the recorder's last
    entries as [rejsched.trace/2] NDJSON forensics.  Auditing never
    influences the run — the schedule is byte-identical with and without
    it. *)

val run :
  ?trace:Trace.t ->
  ?obs:Sched_obs.Obs.t ->
  ?recorder:Sched_obs.Recorder.t ->
  ?check:bool ->
  'a policy ->
  Instance.t ->
  Schedule.t * 'a * live_metrics
(** Simulates the policy on the instance: opens a {!Session}, feeds every
    job in release order and closes it.  Returns the schedule, the
    policy's final state (which instrumented policies use to expose
    analysis data, e.g. the dual variables of Lemma 4) and the final
    incremental-metrics snapshot.  Raises [Invalid_argument] on an
    ill-formed policy decision (dispatch to an ineligible machine,
    rejecting an unknown job, starting a non-pending job, non-positive
    speed). *)

(** {1 Incremental sessions}

    The driver as a long-lived engine: open a session over the machine
    fleet alone, feed arrivals as they become known, drain the event loop
    up to a horizon, and close to materialize the schedule.  {!run} {e is}
    a session — open, feed every job, close — so the batch path is a
    verbatim replay of the session path.

    {b Byte-identity.}  Provided jobs are fed in strictly increasing
    [(release, id)] order (the order {!Sched_model.Instance.jobs_by_release}
    realizes) and each job is fed before any drain passes its release
    (enforced: {!Session.feed} rejects a release behind the drained
    horizon), the session's schedule, trace, recorder ring and live
    metrics are byte-identical to the uninterrupted {!run} over the same
    jobs — regardless of how the stream is chunked into feed/drain
    cycles.  The stream differential suite pins this across the fuzz
    corpus, every registry policy and batch sizes [{1, 7, all}].

    {b Checkpoint/restore.}  {!Session.freeze} marshals the complete
    session — flat columns, policy state, trace, recorder, feed cursor —
    into a binary payload; {!Session.thaw} rebuilds a live session from
    it.  Resuming a frozen session replays the remaining stream exactly
    as the uninterrupted run would have: suspend/resume at any event
    boundary is byte-identical (pinned by the checkpoint suite).  The
    payload embeds code pointers ([Marshal.Closures]) and is therefore
    valid only for the executable that produced it; wrap it in
    {!Sched_sim.Snapshot} for a self-describing container whose
    magic/version/checksum fail closed on anything else.

    {b Bounded memory.}  [~retire:true] folds completed segments into
    the rolling accumulators instead of storing them and drops settled
    jobs' boxed handles, so resident memory is bounded by the live set
    plus the flat columns; {!Session.close} then returns [None] instead
    of a schedule (live metrics remain exact).  Retirement cannot be
    combined with [~check] — the oracle needs the full schedule. *)

module Session : sig
  type 'a t
  (** A session running policy state ['a].  Not thread-safe; one writer. *)

  val open_session :
    ?trace:Trace.t ->
    ?obs:Sched_obs.Obs.t ->
    ?recorder:Sched_obs.Recorder.t ->
    ?check:bool ->
    ?retire:bool ->
    ?name:string ->
    machines:Machine.t array ->
    'a policy ->
    'a t
  (** Opens a session over the fleet.  The policy's [init] sees a
      machines-only instance (zero jobs): registry policies size their
      per-job state lazily, so this is unobservable.  [?check] audits
      the materialized schedule at {!close} with the oracle;
      [?retire] enables segment retirement; [?name] (default
      ["stream"]) names the instance {!close} materializes, letting a
      streamed schedule serialize byte-identically to a batch run over a
      same-named instance.  Raises [Invalid_argument] when [check] and
      [retire] are both set, or on an invalid fleet. *)

  val feed : 'a t -> Job.t -> unit
  (** Queues one arrival.  Jobs must arrive in strictly increasing
      [(release, id)] order, at or after the drained horizon; ids must
      be distinct non-negative ints (dense [0..n-1] is only required if
      the session will materialize a schedule at {!close}).  Raises
      [Invalid_argument] on an out-of-order, duplicate or
      behind-the-horizon job, and on a closed session. *)

  val drain_until : 'a t -> Time.t -> unit
  (** Runs the event loop up to and including the horizon: every queued
      event with key [<= horizon] — arrivals fed so far, completions
      they cascade into — is processed, in exactly the order the batch
      loop would process it.  Advances the drained horizon (monotone;
      draining backwards is a no-op).  Raises on a closed session. *)

  val next_key : 'a t -> Time.t
  (** Key of the next queued event, [infinity] when idle — how far the
      serve loop may drain without outrunning the stream. *)

  val drained : 'a t -> Time.t
  (** The drained horizon ([neg_infinity] before the first
      {!drain_until}). *)

  val fed : 'a t -> int
  (** Jobs fed so far. *)

  val view : 'a t -> view
  val policy_state : 'a t -> 'a

  val trace : 'a t -> Trace.t option
  (** The trace the session records into, if any — for a thawed session
      this is the trace carried inside the frozen payload, which the
      serve loop can reach no other way (its emission cursor restarts at
      {!Trace.length}). *)

  val live_metrics : 'a t -> live_metrics
  (** Incremental metrics over what has been drained so far.  After
      {!close} (which drains everything), equals the batch run's final
      snapshot exactly ([Float.equal], field by field). *)

  val close : 'a t -> Schedule.t option * 'a * live_metrics
  (** Drains the queue dry, checks no machine was left with unfinished
      work, materializes the schedule ([None] under retirement) and
      audits it when the session was opened with [?check].  The
      schedule is byte-identical to {!run}'s over the same jobs.
      Raises [Invalid_argument] if already closed, and whatever the
      audit raises on a violation. *)

  val freeze : 'a t -> string
  (** The session's complete state as a binary payload (callable at any
      event boundary — between any feed/drain calls — on an open
      session).  The session remains usable; freezing is observation,
      not termination. *)

  val thaw : ?obs:Sched_obs.Obs.t -> 'a policy -> string -> 'a t
  (** Rebuilds a live session from a {!freeze} payload.  The policy
      must be the same policy (checked by name; its closures are taken
      fresh, all mutable policy state lives in the marshaled ['a]).
      Telemetry instruments are rebuilt against [?obs] — counters
      restart from the restoring process's registry, which is the one
      non-replayed observable.  Raises [Invalid_argument] on a
      truncated/corrupt payload or a policy mismatch. *)
end
