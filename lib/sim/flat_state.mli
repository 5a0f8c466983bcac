(** Struct-of-arrays simulation state: the state behind {!Driver}.

    Everything the event loop touches per event — job columns, pending
    heaps, running slots, the event queue, metric accumulators — lives in
    unboxed [float array]s and [int array]s indexed by job slot or
    machine id, so the steady state allocates nothing on the minor heap
    once the growable arrays have warmed up.  Heap-allocated values
    appear only at the edges: {!add_job} (once per job),
    {!to_schedule} (once, at the end), and the [Job.t] handles policies
    obtain through the driver's read-only view.

    {b Slots and external ids.}  Each job fed gets a dense {e slot}, and
    every per-job accessor below takes the slot, not the job's id.  A
    retiring state ([of_stream ~retire:true]) hands a settled job's slot back for
    the next arrival, so the columns grow to the peak number of jobs in
    flight, whatever the ids.  No column is per (machine, slot): a job's
    sizes are read off its own handle, and since a slot is pending on at
    most one machine at a time, the pending sets keep its size there and
    its heap positions in one slot-indexed column each, shared by all
    machines.  A state that does not retire
    never hands a slot back: its slots number the jobs in feed order.
    The external id is a column ({!ext}); {!slot_of} goes the other way.
    Every order the pending sets and the index keep breaks its ties on
    the external id, and the index priorities hash it, so no schedule
    depends on which slot a job got.

    {b Byte-identity contract.}  Schedules are pinned byte-for-byte by
    the corpus x policy goldens ([test/golden/]).  Three things decide
    them, and an edit here that changes any of them changes the goldens:

    - the float operation order (float addition is not associative);
    - the {!Pqueue.Iheap} array layout, which [pend_iter] exposes and
      policies fold floats over;
    - the order-statistic index's tree shape, which groups the sums
      {!pend_split} returns;
    - the event tags, drawn from one shared sequence counter as
      arrivals are fed in release order and completions are scheduled.

    Mutators here do {e no} validation beyond array bounds; the driver
    enforces the policy-facing contract (and raises the user-facing
    [Invalid_argument]s) before calling in. *)

open Sched_model

type t

(** {1 Construction}

    Every state starts from the machine fleet alone and learns its jobs
    one {!add_job} at a time; when no slot is free, the job columns
    double.  The pending heaps and the index hold slots only and read
    the columns through the state on every comparison, so growth touches
    nothing but the columns, and the state is plain data that marshals
    without closures.  It holds no instance: {!to_schedule} is handed
    one at the end. *)

val of_stream : retire:bool -> machines:Machine.t array -> t
(** An empty state over a copy of the fleet ([Invalid_argument] on an
    invalid fleet, by {!Sched_model.Instance.check_fleet}, or on more
    machines than the event keys encode,
    {!Pqueue.Events.Key.max_machine}).

    [~retire:true] fixes rolling retirement for the state's life:
    segments are folded into the energy/makespan accumulators without
    being stored, and {!settle} hands the job's slot back and drops its
    boxed [Job.t] handle, so memory is bounded by the jobs in flight.
    {!to_schedule} is then unavailable. *)

val add_job : t -> Job.t -> unit
(** Gives the job a slot, registers its columns and queues its arrival
    event (payload: the slot), consuming the shared sequence counter.
    Jobs must be fed in ascending [(release, id)] order for batch
    byte-identity (the driver's session layer enforces this; ids may be
    arbitrary non-negative ints).  Raises [Invalid_argument] on an id
    fed before — still in flight, or settled — or a sizes array that
    does not match the fleet.

    A retiring state remembers every id it was fed, as maximal runs of
    consecutive ints, so a settled id is refused after its slot is
    reused: ids fed as 0, 1, 2, ... cost O(1) and one run; in general,
    memory and the worst-case insertion are O(number of runs). *)

val reserve : t -> int -> unit
(** Pre-grows the slot capacity, the id map and the event queue for
    [cap] jobs — one reallocation instead of a doubling cascade when the
    count is known up front.  Never shrinks. *)

val retire : t -> bool

(** {1 Slots} *)

val slot_of : t -> Job.id -> int
(** The slot of an external id, or [-1] when no slot holds it (never
    fed, or settled in a retiring state).  O(1) expected,
    allocation-free; the arrival being decided ({!arrive}) and the job
    last offered ({!offer}) resolve without a table probe. *)

val arrive : t -> int -> Job.t
(** [arrive t slot] marks the job at [slot] as the arrival being
    decided and returns its handle.  The driver calls it once per
    arrival event, so the policy's per-machine queries about that job
    resolve its slot by one comparison. *)

val offer : t -> int -> Job.t
(** [offer t slot] returns the handle of the job at [slot] and
    remembers it as the one last handed to a policy (a queue head, a
    running job), so the id the policy names back in [select] or a
    rejection also resolves by one comparison. *)

val ext : t -> int -> Job.id
(** The external id of the job at a slot. *)

(* rejlint: allow test-only-export — tests bound the retiring state's memory by it *)
val capacity : t -> int
(** The slot capacity: the length of every job column. *)

val settle : t -> int -> unit
(** Marks the job at the slot settled (completed or rejected).  In a
    retiring state the slot goes back to the free list for a later
    arrival and {!slot_of} forgets the id; call it last, after every
    read of the job's columns. *)

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

val machines : t -> Machine.t array
(** The state's own copy of the fleet; do not mutate it. *)

val n : t -> int
(** Jobs fed so far. *)

val m : t -> int

val job : t -> int -> Job.t
(** The boxed job handle at a slot, for the view accessors — O(1), no
    search. *)

val release : t -> int -> float
(* rejlint: allow test-only-export — tests check the weight column against each job fed *)
val weight : t -> int -> float
val size : t -> machine:int -> job:int -> float
(** [p_ij], read off the job's handle: valid while the slot holds the
    job (a retiring state drops the handle at {!settle}). *)

val eligible : t -> machine:int -> job:int -> bool

val total_weight : t -> float
val mach_speed : t -> int -> float

(** {1 Clock and status} *)

val clock : t -> float
val set_clock : t -> float -> unit
val loc : t -> int -> int
val set_loc : t -> int -> int -> unit
val account_restart : t -> unit

(** {1 Pending sets}

    Four heap orders per machine (SPT, weighted density, size-then-id,
    FIFO), an order-statistic index in SPT order, and O(1) incremental
    work/weight aggregates, pinned to exactly [0.] when the queue
    empties. *)

val pend_add : t -> int -> int -> unit
(** [pend_add t i slot] — raises [Invalid_argument] if the slot is
    already pending, on [i] or on any other machine. *)

val pend_remove : t -> int -> int -> bool
(** [pend_remove t i slot] — [false] when [slot] is not pending on [i]. *)

val pend_count : t -> int -> int

val pend_heads : t -> float array
(** The pending-head column, of length {!m}: at index [i], the size on
    machine [i] of its SPT head ({!head_spt}) — the smallest pending size
    there — or [infinity] when nothing is pending.  The array is the
    state's own, fixed for its life, and kept current by {!pend_add} and
    {!pend_remove}; readers must not write it.  A scan over every machine
    hoists it and reads it behind one length guard, with no per-machine
    accessor call or bounds check. *)

val pend_work : t -> int -> float
val pend_weight : t -> int -> float

val pend_iter : t -> int -> f:(int -> unit) -> unit
(** Heap-array order of the SPT heap — the order [Driver.pending_iter]
    exposes. *)

val head_spt : t -> int -> int
(** Head slot of the given order, [-1] when the queue is empty. *)

val head_density : t -> int -> int
val head_size_id : t -> int -> int
val head_fifo : t -> int -> int

(** {2 Order-statistic index}

    Per machine, a balanced search tree (a treap with fixed priorities
    hashed from the external ids) over the pending slots in SPT order —
    size on the machine, then release, then external id; the paper's
    [precede] — whose nodes carry
    their subtree's job count and size sum.  Queries are
    O(log |pending_i|) expected and allocate nothing.  The index is
    dormant until first queried, then built from the pending sets and
    kept incremental; its shape depends only on the pending set, so
    waking it late is unobservable.

    Subtree sums are recomputed from the children on every change, never
    updated by subtraction.  They group sizes by tree shape, not in
    {!pend_iter} order: exact on dyadic sizes, and within the last place
    of a left-to-right fold otherwise. *)

type split = private { mutable work_before : float; mutable count_after : float }
(** A prefix-query answer.  [count_after] is an integer held as a float,
    which keeps the record flat (all-float records are stored unboxed). *)

val pend_split : t -> int -> job:int -> split
(** [pend_split t i ~job] — the sum of sizes on [i] of the jobs pending
    on [i] ordered before [job], and the number ordered after it; [job]
    itself, if pending, counts on neither side.  [job] must be the slot
    of a job in flight (its columns are read).  Returns the state's one answer cell,
    overwritten by the next query. *)

val index_max : t -> int -> int
(** The SPT-last pending slot — largest size, then latest release, then
    largest external id — or [-1] when empty. *)

(** {1 Running slots} *)

val run_job : t -> int -> int
(** Running job's slot on the machine, [-1] when idle. *)

val run_started : t -> int -> float
val run_rate : t -> int -> float
val run_finish : t -> int -> float
val epoch : t -> int -> int
val bump_epoch : t -> int -> unit
val set_running : t -> int -> job:int -> started:float -> rate:float -> finish:float -> unit
(** Also counts the start ({!starts}). *)

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
(** Appends the segment, under the job's external id, and folds it into
    the energy/makespan accumulators. *)

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
val starts : t -> int
val restarts : t -> int
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

val to_schedule : t -> Instance.t -> Schedule.t
(** [to_schedule t instance] builds the boxed schedule of [instance] —
    the jobs fed, which the caller holds: segments in insertion order,
    outcomes by external job id.  Raises [Invalid_argument] on a
    retiring state, when the instance's machine or job count disagrees
    with the state, or if some job has no outcome.  The one deliberately
    boxing step, run once per simulation. *)

(* rejlint: allow test-only-export — the structural oracle tests run after mutations *)
val invariant : t -> bool
(** Structural check, for tests: every slot below the high-water mark
    held by exactly one mapped id or free, never both; all four heaps
    consistent and equal-sized per machine, each order's shared position
    column registering exactly the slots its heaps hold, every pending
    slot's order key equal to its size on its machine, every machine's
    {!pend_heads} entry equal to its SPT head's size ([infinity] when empty),
    and the index
    (when live) a
    search tree
    over exactly the SPT heap's slots, heap-ordered on its priorities,
    whose every count and sum equals the one recomputed from the node's
    children. *)
