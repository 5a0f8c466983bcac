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
    measured on equal terms.  The driver does not audit its own runs: a
    caller holding a schedule and its live metrics audits them with
    [Sched_experiments.Policy_registry.audit].

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

type running = { job : Job.t; started : Time.t; rate : float; finish : Time.t }
(** [rate] is volume processed per unit time (execution speed times the
    machine's nominal speed factor). *)

val running_on : view -> Machine.id -> running option

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

val pending_heads : view -> float array
(** The pending-head column, of length [m]: at index [i], [p_ij] of
    machine [i]'s {!pending_shortest} job — the smallest pending size
    there — or [infinity] when nothing is pending; O(1),
    allocation-free.  A lower bound on every pending job's size on the
    machine, which lets a scan skip it without querying its pending set.
    It is the driver's own array, current for as long as the view is, and
    read-only: a policy must never write it.  An O(m) scan hoists it and
    reads it behind one length guard instead of making m calls. *)

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

type split = private {
  mutable work_before : float;
      (** Sum of [p_il] over the jobs [l] pending on [i] that precede
          [j]. *)
  mutable count_after : float;
      (** Number of jobs pending on [i] that [j] precedes — an integer,
          held as a float so the record stays unboxed. *)
}

val pending_split : view -> Machine.id -> Job.t -> split
(** [pending_split view i j] splits machine [i]'s pending set around [j]
    in the order of {!pending_shortest} — [p_ij], then release, then
    id — and returns the two pending-dependent terms of Theorem 1's
    [lambda_ij]; [j] itself, if pending, is on neither side.  O(log
    |pending_i|) through an order-statistic index, allocation-free.
    [j] must be a job the driver has been fed.  The record is the view's
    one answer cell: the next query overwrites it, so read both fields
    first.

    The work sum groups sizes by the index's tree shape, not in
    {!pending_iter} order: exact on dyadic sizes (e.g. multiples of
    1/4), possibly different from a left-to-right fold in the last place
    otherwise. *)

val slot : view -> Job.t -> int
(** The job's slot: a dense index, unique among the jobs in flight, that
    the driver's columns use instead of the external id.  Key per-job
    policy state by it, grown on demand: a session that retires hands a
    settled job's slot to a later arrival, so policy memory tracks the
    jobs in flight, not the largest id.  A reused slot carries the
    previous job's policy state, so reset it in [on_arrival].  O(1) and
    allocation-free; the arriving job, and the job the view last handed
    out (a queue head, a running job), resolve by one comparison.
    Raises [Invalid_argument] for a job that is not in flight. *)

(** {1 Incremental metrics} *)

type live_metrics = Metrics.live = {
  flow : Metrics.flow;
  energy : float;
  rejection : Metrics.rejection;
  makespan : Time.t;
}
(** Objective values maintained incrementally as segments are laid down and
    outcomes recorded — no post-hoc pass over the schedule.  Agrees with the
    corresponding {!Sched_model.Metrics} recomputation up to float rounding
    (the accumulation order differs); the oracle's reconciliation
    ([Sched_check.Oracle.reconcile]) pins the agreement at 1e-9 relative
    error. *)

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
  init : Machine.t array -> 'a;
      (** Builds the policy's state from the machine fleet alone — the
          paper's online model: a policy knows only the jobs released so
          far, so it learns each one at {!field-on_arrival}.  Per-job
          state is keyed by {!slot} and grown on first sight of a higher
          slot; every run, {!run} included, is a session, so there is no
          job count to pre-size by. *)
  on_arrival : 'a -> view -> Job.t -> decision;
  select : 'a -> view -> Machine.id -> start option;
      (** Called whenever [machine] is idle and may start work (after an
          arrival, completion or rejection).  [None] leaves it idle until
          the next event.  The chosen job must be pending on that machine
          and the speed positive. *)
}

(** {1 Running}

    {b Telemetry.}  Passing [?obs] (a {!Sched_obs.Obs.t}) makes the
    session, when it closes, write into the handle's registry:

    - counters [sched_dispatch_total], [sched_start_total],
      [sched_complete_total], [sched_reject_total],
      [sched_reject_midrun_total], [sched_restart_total] — the whole
      run's counts of the corresponding {!Trace} events (a thawed
      session's included), read out of the flat state and {e added}, so
      a shared registry accumulates across runs;
    - gauges [sched_pending_jobs{machine="i"}] (dispatched, not yet started
      or rejected; restarts re-enter) and [sched_inflight_jobs{machine="i"}]
      (dispatched, not yet completed or rejected), zero after a clean close;
    - counters [sched_flat_loop_minor_words_total] /
      [sched_flat_loop_events_total] — the [Gc.minor_words] delta across
      the event loop and the events processed, whose ratio is the
      allocations-per-event figure the bench and the allocation-regression
      test gate on.

    These counters and gauges are all the handle holds: nothing is
    recorded per event and no clock is read.  Telemetry is strictly
    observational: the schedule, policy state and trace are
    byte-identical with and without [?obs].

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
    [trace_event] JSON).

    {b One row per event.}  A recorder row is the only thing an event
    emits; with [?trace] the trace's ring is the sink ({!Trace.t}), and
    [?trace] with a different [?recorder] raises [Invalid_argument]. *)

val run :
  ?trace:Trace.t ->
  ?obs:Sched_obs.Obs.t ->
  ?recorder:Sched_obs.Recorder.t ->
  'a policy ->
  Instance.t ->
  Schedule.t * 'a * live_metrics
(** Simulates the policy on the instance: opens a plain {!Session} over
    its fleet, feeds every job in release order and closes it,
    materializing the schedule against [instance] itself.  The policy
    sees the jobs only as they are released, exactly as a served
    stream's.  Returns the schedule, the
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
    verbatim replay of the session path, and the policy state it returns
    equals a non-retiring session's over the same jobs, however they
    were chunked.

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
    session — flat columns, policy state, the trace's unreleased rows,
    recorder, feed cursor — into a binary payload; {!Session.thaw}
    rebuilds a live session from it.  Resuming a frozen session replays the remaining stream exactly
    as the uninterrupted run would have: suspend/resume at any event
    boundary is byte-identical (pinned by the checkpoint suite).  The
    payload is plain marshaled data with no code pointers, so a rebuild
    of the same source restores it; it does not describe its own
    layout, so wrap it in {!Sched_sim.Snapshot}, whose version is bumped
    on every layout change and whose magic/version/checksum fail closed
    on anything else.

    {b Bounded memory.}  [~retire:true] folds completed segments into
    the rolling accumulators instead of storing them and hands a settled
    job's slot (see {!slot}) to a later arrival, so resident memory — and
    a checkpoint — is bounded by the jobs in flight, whatever the stream's
    length or its ids; {!Session.close} then returns [None] instead of a
    schedule (live metrics remain exact). *)

module Session : sig
  type 'a t
  (** A session running policy state ['a].  Not thread-safe; one writer. *)

  val open_session :
    ?trace:Trace.t ->
    ?obs:Sched_obs.Obs.t ->
    ?recorder:Sched_obs.Recorder.t ->
    ?retire:bool ->
    ?name:string ->
    machines:Machine.t array ->
    'a policy ->
    'a t
  (** Opens a session over the fleet, which is also all the policy's
      [init] sees.  [?retire] enables segment retirement; [?name] (default ["stream"]) names
      the instance {!close} materializes, letting a streamed schedule
      serialize byte-identically to a batch run over a same-named
      instance.  Raises [Invalid_argument] on an invalid fleet. *)

  val feed : 'a t -> Job.t -> unit
  (** Queues one arrival.  Jobs must arrive in strictly increasing
      [(release, id)] order, at or after the drained horizon; ids must
      be distinct non-negative ints (dense [0..n-1] is only required if
      the session will materialize a schedule at {!close}).  Raises
      [Invalid_argument] on an out-of-order, duplicate or
      behind-the-horizon job, and on a closed session; a retiring
      session also refuses an id whose job has already settled. *)

  val drain_until : 'a t -> Time.t -> unit
  (** Runs the event loop up to and including the horizon: every queued
      event with key [<= horizon] — arrivals fed so far, completions
      they cascade into — is processed, in exactly the order the batch
      loop would process it.  Advances the drained horizon (monotone;
      draining backwards is a no-op).  Raises on a closed session. *)

  val next_key : 'a t -> Time.t
  (** Key of the next queued event, [infinity] when idle — how far the
      serve loop may drain without outrunning the stream. *)

  val fed : 'a t -> int
  (** Jobs fed so far. *)

  val view : 'a t -> view

  val trace : 'a t -> Trace.t option
  (** The trace the session records into, if any — for a thawed session
      this is the trace carried inside the frozen payload (its unreleased
      rows only), which the serve loop can reach no other way. *)

  val live_metrics : 'a t -> live_metrics
  (** Incremental metrics over what has been drained so far.  After
      {!close} (which drains everything), equals the batch run's final
      snapshot exactly ([Float.equal], field by field). *)

  val close : 'a t -> Schedule.t option * 'a * live_metrics
  (** Drains the queue dry, checks no machine was left with unfinished
      work and materializes the schedule ([None] under retirement).
      The schedule is byte-identical to {!run}'s over the same jobs.
      Raises [Invalid_argument] if already closed. *)

  val freeze : 'a t -> string
  (** The session's complete state as a binary payload (callable at any
      event boundary — between any feed/drain calls — on an open
      session).  The session remains usable; freezing is observation,
      not termination. *)

  val thaw : ?obs:Sched_obs.Obs.t -> 'a policy -> string -> 'a t
  (** Rebuilds a live session from a {!freeze} payload.  The policy
      must be the same policy (checked by name; its closures are taken
      fresh, all mutable policy state lives in the marshaled ['a]).
      Telemetry instruments are rebuilt against [?obs]; counters are
      read out of the restored state at close, so they cover the whole
      run.  Raises [Invalid_argument] on a
      truncated/corrupt payload or a policy mismatch. *)
end
