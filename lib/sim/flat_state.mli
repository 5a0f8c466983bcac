(** Struct-of-arrays simulation state: the state behind {!Driver}.

    Everything the event loop touches per event — job columns, pending
    heaps, running slots, the event queue, metric accumulators — lives in
    unboxed [float array]s and [int array]s indexed by job/machine id, so
    the steady state allocates nothing on the minor heap once the
    growable arrays have warmed up.  Heap-allocated values appear only at the
    edges: {!of_instance} (once, at the start), {!to_schedule} (once, at
    the end), and the [Job.t] handles policies obtain through the
    driver's read-only view.

    {b Byte-identity contract.}  Schedules are pinned byte-for-byte by
    the corpus x policy goldens ([test/golden/]).  Three things decide
    them, and an edit here that changes any of them changes the goldens:

    - the float operation order (float addition is not associative);
    - the {!Pqueue.Iheap} slot layout, which [pend_iter] exposes and
      policies fold floats over;
    - the event tags, drawn from one shared sequence counter as
      arrivals are fed in release order and completions are scheduled.

    Mutators here do {e no} validation beyond array bounds; the driver
    enforces the policy-facing contract (and raises the user-facing
    [Invalid_argument]s) before calling in. *)

open Sched_model

type t

val of_instance : Instance.t -> t
(** Builds the flat mirror of the instance: job columns by id, size and
    density columns per machine, empty pending/running/event state.
    Raises [Invalid_argument] if the machine count exceeds the event-key
    range ({!Pqueue.Events.Key.max_machine}). *)

(** {1 Streaming construction}

    A session-mode state starts from the machine fleet alone and learns
    its jobs one {!add_job} at a time; the job columns (and the
    per-(machine, job) matrices, whose stride is the job capacity) grow
    by doubling, with the heap comparators re-blessed onto the
    reallocated arrays ({!Pqueue.Iheap.set_less}).  Feeding every job of
    an instance in [jobs_by_release] order reproduces the batch state's
    event tags — and therefore its schedule — byte for byte. *)

val of_stream : machines:Machine.t array -> t
(** An empty state over the fleet ([Invalid_argument] on an invalid
    fleet — ids must be dense 0..m-1 — exactly as instance construction
    validates).  {!instance} returns a machines-only stand-in until
    {!set_instance}. *)

val add_job : t -> Job.t -> unit
(** Registers the job's columns and queues its arrival event, consuming
    the shared sequence counter.  Jobs must be fed in ascending
    [(release, id)] order for batch byte-identity (the driver's session
    layer enforces this; ids may be arbitrary non-negative ints).
    Raises [Invalid_argument] on a duplicate id or a sizes array that
    does not match the fleet. *)

val reserve : t -> int -> unit
(** Pre-grows the job columns and the event queue for [cap] jobs — one
    reallocation instead of a doubling cascade when the count is known
    up front.  Never shrinks. *)

val set_retire : t -> bool -> unit
(** Toggles rolling retirement: segments are folded into the
    energy/makespan accumulators without being stored, and settled jobs
    drop their boxed [Job.t] handle, so memory is bounded by the live
    set plus the flat columns.  {!to_schedule} becomes unavailable.
    Set before the first event; never toggle mid-run. *)

val retire : t -> bool

val set_instance : t -> Instance.t -> unit
(** Swaps the materialized instance in at session close, so
    {!to_schedule} can build against it.  Raises [Invalid_argument] when
    its machine or job count disagrees with the state. *)

(** {1 Status codes}

    [loc] encodes a job's location as an int:
    [loc_unreleased], [loc_settled], or an even/odd encoding of
    pending/running on a machine. *)

val loc_unreleased : int
val loc_settled : int
val loc_pending : machine:int -> int
val loc_running : machine:int -> int
val loc_is_pending : int -> bool
val loc_is_running : int -> bool

val loc_machine : int -> int
(** The machine of a pending/running code (meaningless for the negative
    codes). *)

(** {1 Immutable reads} *)

val instance : t -> Instance.t
val n : t -> int
val m : t -> int

val job : t -> int -> Job.t
(** The boxed job handle, for the view accessors — O(1), no search. *)

val release : t -> int -> float
val weight : t -> int -> float
val min_size : t -> int -> float
val size : t -> machine:int -> job:int -> float
val eligible : t -> machine:int -> job:int -> bool

val cand_mask : t -> job:int -> int
(** Eligibility bitmask over machines — bit [k] for machine [k] up to
    61, machines beyond that saturate into bit 62.  Flight-recorder
    dispatch provenance; allocation-free. *)

val cand_count : t -> job:int -> int
(** Number of machines the job is eligible for.  Allocation-free. *)

val density : t -> machine:int -> job:int -> float
val total_weight : t -> float
val alpha : t -> int -> float
val mach_speed : t -> int -> float

(** {1 Clock and status} *)

val clock : t -> float
val set_clock : t -> float -> unit
val loc : t -> int -> int
val set_loc : t -> int -> int -> unit
val saw_restart : t -> bool
val set_saw_restart : t -> unit

(** {1 Pending sets}

    Five orders per machine (SPT, reverse SPT, weighted density,
    size-then-id, FIFO)
    plus O(1) incremental work/weight aggregates, pinned to exactly [0.]
    when the queue empties. *)

val pend_add : t -> int -> int -> unit
(** [pend_add t i id] — raises [Invalid_argument] if already present. *)

val pend_remove : t -> int -> int -> bool
(** [pend_remove t i id] — [false] when [id] is not pending on [i]. *)

val pend_count : t -> int -> int
val pend_work : t -> int -> float
val pend_weight : t -> int -> float

val pend_iter : t -> int -> f:(int -> unit) -> unit
(** Heap-array order of the SPT heap — the order [Driver.pending_iter]
    exposes. *)

val head_spt : t -> int -> int
(** Head job id of the given order, [-1] when the queue is empty. *)

val head_spt_rev : t -> int -> int
val head_density : t -> int -> int
val head_size_id : t -> int -> int
val head_fifo : t -> int -> int

(** {1 Running slots} *)

val run_job : t -> int -> int
(** Running job id on the machine, [-1] when idle. *)

val run_started : t -> int -> float
val run_rate : t -> int -> float
val run_finish : t -> int -> float
val epoch : t -> int -> int
val bump_epoch : t -> int -> unit
val set_running : t -> int -> job:int -> started:float -> rate:float -> finish:float -> unit
val clear_running : t -> int -> unit

(** {1 Events}

    Backed by {!Pqueue.Events}; the popped event is read back through the
    [ev_*] cursor accessors, so the loop never allocates an option. *)

val push_finish : t -> machine:int -> time:float -> unit
(** Schedules a completion at [time] for the machine's {e current}
    epoch. *)

val next_event_before : t -> limit:float -> bool
(** Pops the next event unless its key is beyond the horizon —
    {!Pqueue.Events.pop_before} on the shared queue.  The session
    driver's bounded drain; callers box [limit] once per drain. *)

val next_key : t -> float
(** Key of the next queued event, or [infinity] when the queue is
    empty.  Allocation-free. *)

val events_pushed : t -> int
(** Total events pushed so far (arrivals + scheduled completions).  Once
    the queue has drained, this equals the number of events the loop
    processed — the denominator of the allocations-per-event metric. *)

val ev_time : t -> float
val ev_tag : t -> int
val ev_payload : t -> int

(** {1 Segments, accounting, outcomes} *)

val lay_segment :
  t -> job:int -> machine:int -> start:float -> stop:float -> speed:float -> unit
(** Appends the segment and folds it into the energy/makespan
    accumulators. *)

val seg_count : t -> int
val account_completion : t -> int -> float -> unit
val account_rejection : t -> int -> float -> was_running:bool -> unit

val outcome_completed :
  t -> job:int -> machine:int -> start:float -> speed:float -> finish:float -> unit
(** Raises [Invalid_argument] when the job already has an outcome. *)

val outcome_rejected : t -> job:int -> machine:int -> time:float -> was_running:bool -> unit

(** {1 Accumulator reads} *)

val completed : t -> int
val rejected : t -> int
val mid_run : t -> int
val flow : t -> float
val wflow : t -> float
val rej_flow : t -> float
val rej_wflow : t -> float
val max_flow : t -> float
val max_stretch : t -> float
val energy : t -> float
val makespan : t -> float
val rej_weight : t -> float

(** {1 Materialization} *)

val to_schedule : t -> Schedule.t
(** Builds the boxed schedule: segments in insertion order, outcomes by
    job id.  Raises
    [Invalid_argument] if some job has no outcome.  The one deliberately
    boxing step, run once per simulation. *)

val invariant : t -> bool
(** Structural check (all five heaps consistent and equal-sized per
    machine), for tests. *)
