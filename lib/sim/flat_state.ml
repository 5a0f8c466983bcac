open Sched_model

(* Struct-of-arrays simulation state.

   Everything the driver's inner loop touches per event lives in unboxed
   [float array]s and [int array]s: job columns by slot, machine columns
   by machine id, per-machine pending heaps over bare slots
   ([Pqueue.Iheap]), the running slot, the event queue
   ([Pqueue.Events]) and the metric accumulators.  Once the growable
   arrays have warmed up, none of the mutators here allocates on the
   minor heap — the only boxed structures are built at the edges
   ([add_job], [to_schedule], and the [Job.t] handles policies read
   through the driver's view accessors.

   A job's columns sit at its slot, a dense index handed out when the job
   is fed and, in a retiring state, handed back when it settles; the
   external job id is a column like any other ([ext]).  So the columns
   grow to the peak number of jobs in flight, not to the largest id.

   Schedules are pinned byte-for-byte by the corpus x policy goldens, so
   the float operation order below is load-bearing (float addition is
   not associative), as is the pending heaps' slot layout (policies fold
   floats over [pending_iter]'s heap-array order); the aggregate
   work/weight sums are pinned back to exactly [0.] when a queue
   empties.  Nothing that decides a schedule reads a slot number: every
   tie-break compares external ids, and the index priorities hash them. *)

(* Indices into the [facc] float-accumulator array.  A [mutable float]
   field of a mixed record would be boxed and re-allocated on every
   write; one flat float array keeps the whole hot-path float state
   unboxed. *)
let f_clock = 0
let f_flow = 1
let f_wflow = 2
let f_rej_flow = 3
let f_rej_wflow = 4
let f_max_flow = 5
let f_max_stretch = 6
let f_energy = 7
let f_makespan = 8
let f_rej_weight = 9

(* Total released weight: a constant of the instance in batch runs, but a
   running sum in streaming sessions (accumulated as jobs are fed, in the
   same jobs-by-release order [Instance.total_weight] folds in, so the
   float sum is bit-identical once the stream is complete). *)
let f_total_weight = 10
let facc_len = 11

(* [loc] codes: *)
let loc_unreleased = -1
let loc_settled = -2
let loc_pending ~machine = 2 * machine
let loc_running ~machine = (2 * machine) + 1
let loc_is_pending l = l >= 0 && l land 1 = 0
let loc_is_running l = l >= 0 && l land 1 = 1
let loc_machine l = l asr 1

(* The answer cell of [pend_split]: one per state, overwritten by every
   query.  Both fields are floats so the record is stored flat — an int
   field would make every write of the float one allocate a box. *)
type split = { mutable work_before : float; mutable count_after : float }

(* Outcome kinds in [out_kind]: *)
let out_none = 0
let out_completed = 1
let out_rejected = 2

(* External id -> slot, for the ids a policy names in its decisions.
   Open addressing with linear probing over a power-of-two table kept at
   most three quarters full; a removal shifts the rest of its probe run back
   instead of leaving a tombstone, so the table tracks the live
   population and a lookup is O(1) expected, allocation-free.  Ids are
   non-negative, so [-1] marks an empty cell. *)
module Idmap = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable len : int }

  let create () = { keys = Array.make 16 (-1); vals = Array.make 16 0; len = 0 }

  let[@rejlint.hot] home mask id =
    let h = id * 0x2545f4914f6cdd1d in
    (h lxor (h lsr 32)) land mask

  (* The cell holding [id], or the empty cell that ends its probe run. *)
  let[@rejlint.hot] rec probe keys mask id i =
    let k = keys.(i) in
    if k = id || k < 0 then i else probe keys mask id ((i + 1) land mask)

  let[@rejlint.hot] find t id =
    let keys = t.keys in
    let i = probe keys (Array.length keys - 1) id (home (Array.length keys - 1) id) in
    if keys.(i) = id then t.vals.(i) else -1

  let resize t cap =
    let keys = t.keys and vals = t.vals in
    let nkeys = Array.make cap (-1) and nvals = Array.make cap 0 in
    let mask = cap - 1 in
    for c = 0 to Array.length keys - 1 do
      let k = keys.(c) in
      if k >= 0 then begin
        let i = probe nkeys mask k (home mask k) in
        nkeys.(i) <- k;
        nvals.(i) <- vals.(c)
      end
    done;
    t.keys <- nkeys;
    t.vals <- nvals

  (* Room for [n] keys at load <= 3/4.  Never shrinks. *)
  let reserve t n =
    let cap = ref (Array.length t.keys) in
    while 4 * n > 3 * !cap do
      cap := 2 * !cap
    done;
    if !cap > Array.length t.keys then resize t !cap

  (* [id] must be absent. *)
  let add t id v =
    reserve t (t.len + 1);
    let mask = Array.length t.keys - 1 in
    let i = probe t.keys mask id (home mask id) in
    t.keys.(i) <- id;
    t.vals.(i) <- v;
    t.len <- t.len + 1

  (* Backward-shift deletion: walk the probe run after the hole and move
     back every key whose home does not lie cyclically in (hole, cell]. *)
  let[@rejlint.hot] rec shift keys vals mask hole c =
    let k = keys.(c) in
    if k < 0 then keys.(hole) <- -1
    else begin
      let h = home mask k in
      let stays = if hole <= c then hole < h && h <= c else hole < h || h <= c in
      if stays then shift keys vals mask hole ((c + 1) land mask)
      else begin
        keys.(hole) <- k;
        vals.(hole) <- vals.(c);
        shift keys vals mask c ((c + 1) land mask)
      end
    end

  (* [id] must be present. *)
  let[@rejlint.hot] remove t id =
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = probe keys mask id (home mask id) in
    shift keys t.vals mask i ((i + 1) land mask);
    t.len <- t.len - 1
end

(* The ids a retiring state has been fed, as sorted, disjoint, maximal
   runs [lo.(k) .. hi.(k)] of consecutive ints: what catches a settled
   id fed again once its slot and its [Idmap] entry are gone.  Memory is
   O(number of runs), and so is an insertion in the worst case; ids fed
   in ascending order with no gaps (0, 1, 2, ...) extend the last run in
   O(1) and keep the set at one run. *)
module Runs = struct
  type t = { mutable lo : int array; mutable hi : int array; mutable len : int }

  let create () = { lo = [||]; hi = [||]; len = 0 }

  (* The last run with [lo <= id], or [-1]. *)
  let locate t id =
    if t.len > 0 && t.lo.(t.len - 1) <= id then t.len - 1
    else begin
      let a = ref (-1) and b = ref t.len in
      (* lo.(a) <= id < lo.(b), with a = -1 and b = len as sentinels. *)
      while !b - !a > 1 do
        let c = (!a + !b) / 2 in
        if t.lo.(c) <= id then a := c else b := c
      done;
      !a
    end

  let mem t id =
    let k = locate t id in
    k >= 0 && id <= t.hi.(k)

  (* [id] must be absent. *)
  let add t id =
    let k = locate t id in
    let left = k >= 0 && t.hi.(k) = id - 1 in
    let right = k + 1 < t.len && t.lo.(k + 1) = id + 1 in
    if left && right then begin
      t.hi.(k) <- t.hi.(k + 1);
      Array.blit t.lo (k + 2) t.lo (k + 1) (t.len - k - 2);
      Array.blit t.hi (k + 2) t.hi (k + 1) (t.len - k - 2);
      t.len <- t.len - 1
    end
    else if left then t.hi.(k) <- id
    else if right then t.lo.(k + 1) <- id
    else begin
      if t.len = Array.length t.lo then begin
        let cap = max 4 (2 * t.len) in
        let nlo = Array.make cap 0 and nhi = Array.make cap 0 in
        Array.blit t.lo 0 nlo 0 t.len;
        Array.blit t.hi 0 nhi 0 t.len;
        t.lo <- nlo;
        t.hi <- nhi
      end;
      Array.blit t.lo (k + 1) t.lo (k + 2) (t.len - k - 1);
      Array.blit t.hi (k + 1) t.hi (k + 2) (t.len - k - 1);
      t.lo.(k + 1) <- id;
      t.hi.(k + 1) <- id;
      t.len <- t.len + 1
    end
end

type t = {
  machines : Machine.t array;
  mutable n : int;  (* jobs fed so far *)
  m : int;
  mutable cap : int;
      (* Slot capacity: the length of every job column.  Grows by
         doubling when every slot is taken. *)
  retire : bool;
      (* Rolling-retirement mode: completed/rejected work is folded into
         the accumulators only — no segment store — and a settled job's
         slot goes back to the free list, so memory stays bounded by the
         jobs in flight.  [to_schedule] is unavailable. *)
  (* The slot allocator: [slots] slots have ever been handed out, and the
     first [nfree] cells of [free] are the ones handed back (reused last
     in, first out).  A state that does not retire never hands one back,
     so its slots number the jobs in feed order. *)
  mutable slots : int;
  mutable free : int array;
  mutable nfree : int;
  ids : Idmap.t;  (* external id -> slot, for every job holding a slot *)
  seen : Runs.t;  (* retiring states only: every id fed *)
  (* The arrival being decided, resolved once when its event pops, so the
     per-machine queries of [on_arrival] never touch [ids]. *)
  mutable cur_id : int;
  mutable cur_slot : int;
  (* Likewise the job the view last handed a policy (a queue head, a
     running job), which is the id a [select] or a rejection names back. *)
  mutable offer_id : int;
  mutable offer_slot : int;
  (* Job columns, indexed by slot; written when the job is fed
     ([add_job]), read-only until the slot is reused. *)
  mutable ext : int array;  (* the external job id *)
  mutable jobs : Job.t array;
  mutable release : float array;
  mutable weight : float array;
  (* Pending sets: four heap orders per machine over bare slots, the
     order-statistic index below, and the incremental work/weight
     aggregates.  Only [by_spt] is observable as a *layout* (through
     [pend_iter]); the three auxiliary heaps expose nothing but their
     minimum, which each strict total order makes unique regardless of
     heap shape.  They — and the index — are therefore maintained
     lazily: dormant until a policy first queries them, then rebuilt
     from [by_spt] and kept incremental from that point on.  Policies
     that never consult an order never pay for it, in time or in memory:
     a dormant order's position column stays empty until it wakes.  The
     heaps hold slots only; each call passes its order ([less_spt] and
     friends below) with [t], and its position column.

     A slot is pending on at most one machine at a time, so every
     per-slot column of the pending sets is shared by all machines:
     [psize.(s)] is the job's size on the machine it is pending on
     (written by [pend_add], read by every order), and each order keeps
     one slot -> heap-position column for all its per-machine heaps. *)
  mutable psize : float array;
  by_spt : Pqueue.Iheap.t array;
  by_density : Pqueue.Iheap.t array;
  by_size_id : Pqueue.Iheap.t array;
  by_fifo : Pqueue.Iheap.t array;
  mutable pos_spt : int array;
  mutable pos_density : int array;
  mutable pos_size_id : int array;
  mutable pos_fifo : int array;
  mutable live_density : bool;
  mutable live_size_id : bool;
  mutable live_fifo : bool;
  (* Order-statistic index: one treap per machine over its pending slots,
     in [less_spt] order (the paper's [precede]), each node carrying its
     subtree's job count and size sum.  A job is pending on at most one
     machine, so the node columns are indexed by slot and shared by all
     machines; only the roots are per machine.  Child links are slots,
     [-1] for none. *)
  mutable ix_left : int array;
  mutable ix_right : int array;
  mutable ix_count : int array;
  mutable ix_work : float array;
  ix_root : int array;
  mutable live_index : bool;
  split : split;
  p_head : float array;
      (* Per machine, the size of the SPT head of its pending set —
         the smallest pending size there — or [infinity] when the set is
         empty: an O(1) lower bound on the pending sizes, which
         flow-reject's dispatch scan prunes with. *)
  p_work : float array;
  p_weight : float array;
  (* Running slot per machine; [run_job.(i) = -1] when idle. *)
  run_job : int array;
  run_started : float array;
  run_rate : float array;
  run_finish : float array;
  epoch : int array;
  (* Job status by slot (see the [loc_*] codes above). *)
  mutable loc : int array;
  (* Event queue and its shared insertion-sequence counter. *)
  events : Pqueue.Events.t;
  mutable seq : int;
  (* Float accumulators (clock + incremental metrics); int counts are
     immediate and live as plain mutable fields. *)
  facc : float array;
  mutable a_completed : int;
  mutable a_rejected : int;
  mutable a_mid_run : int;
  mutable a_starts : int;
  mutable a_restarts : int;
  (* Outcomes by slot: kind, machine, start-or-rejection time, speed,
     finish, mid-run flag.  Written under retirement too — [out_kind] is
     what [check_undecided]'s double-decide guard reads — and cleared
     when a slot is handed out again. *)
  mutable out_kind : int array;
  mutable out_machine : int array;
  mutable out_t0 : float array;
  mutable out_speed : float array;
  mutable out_finish : float array;
  mutable out_running : bool array;
  (* Segments in insertion order, in growable parallel arrays; a segment
     carries the external id. *)
  mutable seg_job : int array;
  mutable seg_machine : int array;
  mutable seg_start : float array;
  mutable seg_stop : float array;
  mutable seg_speed : float array;
  mutable seg_len : int;
}

(* The strict orders of the pending heaps and the index: primitive float
   [<]/[>] branches (so [-0. = 0.] and incomparable infinities fall
   through), then the tie-break on the external id — never on the slot,
   which depends on which slots happened to be free.  Each is a top-level
   function of the state, so no heap captures a column: the columns can
   be reallocated by [grow_columns], and the state marshals as plain
   data.  Both slots are pending on the same machine, so [psize] holds
   their sizes there. *)

(* The ties after the size: earlier release, then smaller external id. *)
let[@rejlint.hot] before_release t a b =
  let ra = t.release.(a) and rb = t.release.(b) in
  if ra < rb then true else if ra > rb then false else t.ext.(a) < t.ext.(b)
[@@inline]

let[@rejlint.hot] less_spt t a b =
  let pa = t.psize.(a) and pb = t.psize.(b) in
  if pa < pb then true else if pa > pb then false else before_release t a b

(* The density [w_j /. p_ij] is recomputed, not stored: the division is
   exact IEEE arithmetic, so the order is the same as a stored column's,
   and only the weighted policies ever wake this order. *)
let[@rejlint.hot] less_density t a b =
  let da = t.weight.(a) /. t.psize.(a) and db = t.weight.(b) /. t.psize.(b) in
  if da > db then true else if da < db then false else before_release t a b

let[@rejlint.hot] less_size_id t a b =
  let pa = t.psize.(a) and pb = t.psize.(b) in
  if pa > pb then true else if pa < pb then false else t.ext.(b) < t.ext.(a)

let[@rejlint.hot] less_fifo t a b = before_release t a b

(* Fill value for the [jobs] column: free slots hold it, and rolling
   retirement drops a handle the moment its job settles.  Never read
   back — every consumer goes through [loc]/[out_kind] first.  ([Job.t]
   is private, so the stand-in goes through the validating constructor
   like any other job.) *)
let retired_job = Job.create ~id:0 ~release:0. ~sizes:[| 1. |] ()

(* ------------------------------------------------------------------ *)
(* Construction: a state over the machine fleet alone, whose jobs arrive
   one [add_job] at a time. *)

let of_stream ~retire ~machines =
  Instance.check_fleet machines;
  let m = Array.length machines in
  if m > Pqueue.Events.Key.max_machine then
    invalid_arg (Printf.sprintf "Flat_state: %d machines exceed the event-key range" m);
  let heap () = Array.init m (fun _ -> Pqueue.Iheap.create ()) in
  {
    machines = Array.copy machines;
    n = 0;
    m;
    cap = 0;
    retire;
    slots = 0;
    free = [||];
    nfree = 0;
    ids = Idmap.create ();
    seen = Runs.create ();
    cur_id = -1;
    cur_slot = -1;
    offer_id = -1;
    offer_slot = -1;
    ext = [||];
    jobs = [||];
    release = [||];
    weight = [||];
    psize = [||];
    by_spt = heap ();
    by_density = heap ();
    by_size_id = heap ();
    by_fifo = heap ();
    pos_spt = [||];
    pos_density = [||];
    pos_size_id = [||];
    pos_fifo = [||];
    live_density = false;
    live_size_id = false;
    live_fifo = false;
    ix_left = [||];
    ix_right = [||];
    ix_count = [||];
    ix_work = [||];
    ix_root = Array.make m (-1);
    live_index = false;
    split = { work_before = 0.; count_after = 0. };
    p_head = Array.make m infinity;
    p_work = Array.make m 0.;
    p_weight = Array.make m 0.;
    run_job = Array.make m (-1);
    run_started = Array.make m 0.;
    run_rate = Array.make m 0.;
    run_finish = Array.make m 0.;
    epoch = Array.make m 0;
    loc = [||];
    events = Pqueue.Events.create ();
    seq = 0;
    facc = Array.make facc_len 0.;
    a_completed = 0;
    a_rejected = 0;
    a_mid_run = 0;
    a_starts = 0;
    a_restarts = 0;
    out_kind = [||];
    out_machine = [||];
    out_t0 = [||];
    out_speed = [||];
    out_finish = [||];
    out_running = [||];
    seg_job = Array.make 16 0;
    seg_machine = Array.make 16 0;
    seg_start = Array.make 16 0.;
    seg_stop = Array.make 16 0.;
    seg_speed = Array.make 16 0.;
    seg_len = 0;
  }

(* Grow the slot capacity to at least [need].  Every column is indexed
   by slot alone, so each one blits; the heaps and the index hold slots
   only and read the columns through [t] on every comparison, so nothing
   else moves.  Cold: amortized O(1) per fed job. *)
let grow_columns t need =
  let cap = t.cap in
  if need > cap then begin
    let ncap = max 16 (max need (2 * cap)) in
    let used = t.slots in
    let grow_f a = let b = Array.make ncap 0. in Array.blit a 0 b 0 used; b in
    let grow_i fill a = let b = Array.make ncap fill in Array.blit a 0 b 0 used; b in
    let njobs = Array.make ncap retired_job in
    Array.blit t.jobs 0 njobs 0 used;
    t.jobs <- njobs;
    t.ext <- grow_i (-1) t.ext;
    t.release <- grow_f t.release;
    t.weight <- grow_f t.weight;
    t.psize <- grow_f t.psize;
    t.pos_spt <- grow_i (-1) t.pos_spt;
    if t.live_density then t.pos_density <- grow_i (-1) t.pos_density;
    if t.live_size_id then t.pos_size_id <- grow_i (-1) t.pos_size_id;
    if t.live_fifo then t.pos_fifo <- grow_i (-1) t.pos_fifo;
    t.loc <- grow_i loc_unreleased t.loc;
    t.ix_left <- grow_i (-1) t.ix_left;
    t.ix_right <- grow_i (-1) t.ix_right;
    t.ix_count <- grow_i 0 t.ix_count;
    t.ix_work <- grow_f t.ix_work;
    t.out_kind <- grow_i out_none t.out_kind;
    t.out_machine <- grow_i 0 t.out_machine;
    t.out_t0 <- grow_f t.out_t0;
    t.out_speed <- grow_f t.out_speed;
    t.out_finish <- grow_f t.out_finish;
    let nrun = Array.make ncap false in
    Array.blit t.out_running 0 nrun 0 used;
    t.out_running <- nrun;
    t.cap <- ncap
  end

(* Registers the job under a fresh slot: its columns, its [ids] entry
   and, in a retiring state, its place in [seen].  Queues nothing. *)
let admit t (j : Job.t) =
  let id = j.Job.id in
  if Array.length j.Job.sizes <> t.m then
    invalid_arg
      (Printf.sprintf "Flat_state.add_job: job %d has %d sizes for %d machines" id
         (Array.length j.Job.sizes) t.m);
  if Idmap.find t.ids id >= 0 || Runs.mem t.seen id then
    invalid_arg (Printf.sprintf "Flat_state.add_job: job %d already added" id);
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      grow_columns t (t.slots + 1);
      t.slots <- t.slots + 1;
      t.slots - 1
    end
  in
  Idmap.add t.ids id s;
  if t.retire then Runs.add t.seen id;
  t.ext.(s) <- id;
  t.jobs.(s) <- j;
  t.release.(s) <- j.Job.release;
  t.weight.(s) <- j.Job.weight;
  t.loc.(s) <- loc_unreleased;
  t.out_kind.(s) <- out_none;
  t.out_running.(s) <- false;
  t.n <- t.n + 1;
  s

let add_job t (j : Job.t) =
  let s = admit t j in
  t.facc.(f_total_weight) <- t.facc.(f_total_weight) +. j.Job.weight;
  t.seq <- t.seq + 1;
  Pqueue.Events.push t.events ~key:j.Job.release
    ~tag:(Pqueue.Events.Key.arrival_tag ~seq:t.seq)
    ~payload:s

(* Pre-size for a known job count: one growth instead of a doubling
   cascade, and the event queue holds all arrivals at once — how
   [Driver.run] keeps its allocation profile flat. *)
let reserve t cap =
  if cap > 0 then begin
    grow_columns t cap;
    Idmap.reserve t.ids cap;
    Pqueue.Events.ensure_capacity t.events cap
  end

let retire t = t.retire

(* ------------------------------------------------------------------ *)
(* Slots. *)

let[@rejlint.hot] slot_of t id =
  if id = t.cur_id then t.cur_slot
  else if id = t.offer_id then t.offer_slot
  else Idmap.find t.ids id

let[@rejlint.hot] arrive t s =
  t.cur_id <- t.ext.(s);
  t.cur_slot <- s;
  t.jobs.(s)

let[@rejlint.hot] offer t s =
  t.offer_id <- t.ext.(s);
  t.offer_slot <- s;
  t.jobs.(s)

let[@rejlint.hot] ext t s = t.ext.(s)
let capacity t = t.cap

(* ------------------------------------------------------------------ *)
(* Immutable reads. *)

let machines t = t.machines
let[@rejlint.hot] n t = t.n
let[@rejlint.hot] m t = t.m
let[@rejlint.hot] job t s = t.jobs.(s)
let[@rejlint.hot] release t s = t.release.(s)
let[@rejlint.hot] weight t s = t.weight.(s)
(* A job's sizes are read off its own handle: one contiguous vector per
   job, which the instance (or the stream's arrival) already holds. *)
let[@rejlint.hot] size t ~machine ~job = t.jobs.(job).Job.sizes.(machine)
let[@rejlint.hot] eligible t ~machine ~job = Float.is_finite (size t ~machine ~job)

let[@rejlint.hot] total_weight t = t.facc.(f_total_weight)
let[@rejlint.hot] alpha t i = t.machines.(i).Machine.alpha
let[@rejlint.hot] mach_speed t i = t.machines.(i).Machine.speed

(* ------------------------------------------------------------------ *)
(* Clock and status. *)

let[@rejlint.hot] clock t = t.facc.(f_clock)
let[@rejlint.hot] set_clock t v = t.facc.(f_clock) <- v
let[@rejlint.hot] loc t s = t.loc.(s)
let[@rejlint.hot] set_loc t s l = t.loc.(s) <- l
let[@rejlint.hot] account_restart t = t.a_restarts <- t.a_restarts + 1

(* Cold: the free list grows only when a retiring state hands slots back,
   so a state that never frees keeps it empty. *)
let grow_free t =
  let nf = Array.make (max 16 (2 * t.nfree)) 0 in
  Array.blit t.free 0 nf 0 t.nfree;
  t.free <- nf

(* The job at slot [s] has settled.  A retiring state hands the slot back
   and forgets the id (it stays in [seen]); the handle — and its
   per-machine sizes array, the dominant per-job heap cost — goes the
   moment nothing can read it again. *)
let[@rejlint.hot] settle t s =
  t.loc.(s) <- loc_settled;
  if t.retire then begin
    let id = t.ext.(s) in
    Idmap.remove t.ids id;
    if t.cur_id = id then t.cur_id <- -1;
    if t.offer_id = id then t.offer_id <- -1;
    t.jobs.(s) <- retired_job;
    if t.nfree = Array.length t.free then grow_free t;
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  end

(* ------------------------------------------------------------------ *)
(* Pending sets. *)

(* The order-statistic index.  A treap: a binary search tree in
   [less_spt] order that is also a max-heap on a fixed priority per job.
   With distinct priorities, the tree shape is a function of the key set
   alone — the same whatever the history of inserts and removes — so a
   dormant index woken late is node-for-node the index kept incremental
   from the start.

   Every node's count and work are recomputed from its children
   ([left + p + right]) whenever its subtree changes; nothing is
   maintained by subtraction, so no rounding residue can accumulate.  The
   work sums group sizes by tree shape rather than by the scan's
   heap-array order: on dyadic sizes every grouping is exact, and on
   other inputs a query's total can differ from a left-to-right fold in
   the last place.

   All operations are recursions over int slots and in-place stores into
   the columns, so none allocates. *)

(* Treap priority: a fixed integer hash of the external job id, so the
   tree shape does not depend on slot assignment.  Each step (multiply by
   an odd constant, xor with a right shift) is a bijection on 63-bit
   ints, so distinct ids get distinct priorities. *)
let[@rejlint.hot] prio id =
  let x = (id + 1) * 0x1d8e4e27c47d124f in
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545f4914f6cdd1d in
  x lxor (x lsr 29)

(* [a] outranks [b] in the heap order on priorities. *)
let[@rejlint.hot] above t a b = prio t.ext.(a) > prio t.ext.(b)

(* Recompute a node's count and work from its children. *)
let[@rejlint.hot] ix_fix t node =
  let l = t.ix_left.(node) and r = t.ix_right.(node) in
  t.ix_count.(node) <-
    (if l < 0 then 0 else t.ix_count.(l)) + 1 + if r < 0 then 0 else t.ix_count.(r);
  t.ix_work.(node) <-
    (if l < 0 then 0. else t.ix_work.(l))
    +. t.psize.(node)
    +. if r < 0 then 0. else t.ix_work.(r)

(* Inserts [s] into the subtree rooted at [node] and returns the
   subtree's new root, rotating [s] up while its priority beats its
   parent's. *)
let[@rejlint.hot] rec ix_insert t s node =
  if node < 0 then begin
    t.ix_left.(s) <- -1;
    t.ix_right.(s) <- -1;
    ix_fix t s;
    s
  end
  else if less_spt t s node then begin
    let l = ix_insert t s t.ix_left.(node) in
    if above t l node then begin
      t.ix_left.(node) <- t.ix_right.(l);
      ix_fix t node;
      t.ix_right.(l) <- node;
      ix_fix t l;
      l
    end
    else begin
      t.ix_left.(node) <- l;
      ix_fix t node;
      node
    end
  end
  else begin
    let r = ix_insert t s t.ix_right.(node) in
    if above t r node then begin
      t.ix_right.(node) <- t.ix_left.(r);
      ix_fix t node;
      t.ix_left.(r) <- node;
      ix_fix t r;
      r
    end
    else begin
      t.ix_right.(node) <- r;
      ix_fix t node;
      node
    end
  end

(* Joins two subtrees whose keys are all ordered [a] before [b]. *)
let[@rejlint.hot] rec ix_merge t a b =
  if a < 0 then b
  else if b < 0 then a
  else if above t a b then begin
    t.ix_right.(a) <- ix_merge t t.ix_right.(a) b;
    ix_fix t a;
    a
  end
  else begin
    t.ix_left.(b) <- ix_merge t a t.ix_left.(b);
    ix_fix t b;
    b
  end

(* Removes [s] (present) from the subtree at [node]; returns the new
   root. *)
let[@rejlint.hot] rec ix_remove t s node =
  if node < 0 then node
  else if node = s then ix_merge t t.ix_left.(s) t.ix_right.(s)
  else begin
    if less_spt t s node then
      t.ix_left.(node) <- ix_remove t s t.ix_left.(node)
    else t.ix_right.(node) <- ix_remove t s t.ix_right.(node);
    ix_fix t node;
    node
  end

(* [less_spt node job] on machine [i] for a probe [job] that need not be
   pending there (an arrival is pending nowhere): its size comes from its
   own vector, [sizes = jobs.(job).sizes]. *)
let[@rejlint.hot] before_probe t sizes i node job =
  let pa = t.psize.(node) and pb = sizes.(i) in
  if pa < pb then true else if pa > pb then false else before_release t node job
[@@inline]

(* The prefix query.  Walks from [node] toward [job]'s position: a node
   ordered before [job] adds its own size and its left subtree's work to
   [split.work_before], a node ordered after it adds itself and its
   right subtree to the returned count.  [job] itself, when pending,
   lands on neither side. *)
let[@rejlint.hot] rec ix_split t sizes i job node after =
  if node < 0 then after
  else if node = job then begin
    let l = t.ix_left.(node) and r = t.ix_right.(node) in
    if l >= 0 then t.split.work_before <- t.split.work_before +. t.ix_work.(l);
    if r < 0 then after else after + t.ix_count.(r)
  end
  else if before_probe t sizes i node job then begin
    let l = t.ix_left.(node) in
    t.split.work_before <-
      t.split.work_before +. ((if l < 0 then 0. else t.ix_work.(l)) +. t.psize.(node));
    ix_split t sizes i job t.ix_right.(node) after
  end
  else begin
    let r = t.ix_right.(node) in
    ix_split t sizes i job t.ix_left.(node) (after + 1 + if r < 0 then 0 else t.ix_count.(r))
  end

let[@rejlint.hot] rec ix_rightmost t node =
  let r = t.ix_right.(node) in
  if r < 0 then node else ix_rightmost t r

(* Re-reads machine [i]'s SPT head into [p_head] after a change. *)
let[@rejlint.hot] set_head t i =
  let h = Pqueue.Iheap.min_id t.by_spt.(i) in
  t.p_head.(i) <- (if h < 0 then infinity else t.psize.(h))

let[@rejlint.hot] pend_add t i s =
  (* [psize.(s)] is the order key of a pending slot, so it may only be
     overwritten while the slot is pending nowhere. *)
  if t.pos_spt.(s) >= 0 then
    (invalid_arg (Printf.sprintf "Flat_state.pend_add: job %d already pending" t.ext.(s))
    [@rejlint.cold]);
  t.psize.(s) <- size t ~machine:i ~job:s;
  Pqueue.Iheap.add t.by_spt.(i) ~less:less_spt t ~pos:t.pos_spt ~id:s;
  set_head t i;
  if t.live_density then
    Pqueue.Iheap.add t.by_density.(i) ~less:less_density t ~pos:t.pos_density ~id:s;
  if t.live_size_id then
    Pqueue.Iheap.add t.by_size_id.(i) ~less:less_size_id t ~pos:t.pos_size_id ~id:s;
  if t.live_fifo then Pqueue.Iheap.add t.by_fifo.(i) ~less:less_fifo t ~pos:t.pos_fifo ~id:s;
  if t.live_index then t.ix_root.(i) <- ix_insert t s t.ix_root.(i);
  t.p_work.(i) <- t.p_work.(i) +. t.psize.(s);
  t.p_weight.(i) <- t.p_weight.(i) +. t.weight.(s)

let[@rejlint.hot] pend_remove t i s =
  if not (Pqueue.Iheap.remove t.by_spt.(i) ~less:less_spt t ~pos:t.pos_spt ~id:s) then false
  else begin
    set_head t i;
    if t.live_density then
      ignore (Pqueue.Iheap.remove t.by_density.(i) ~less:less_density t ~pos:t.pos_density ~id:s);
    if t.live_size_id then
      ignore (Pqueue.Iheap.remove t.by_size_id.(i) ~less:less_size_id t ~pos:t.pos_size_id ~id:s);
    if t.live_fifo then
      ignore (Pqueue.Iheap.remove t.by_fifo.(i) ~less:less_fifo t ~pos:t.pos_fifo ~id:s);
    if t.live_index then t.ix_root.(i) <- ix_remove t s t.ix_root.(i);
    if Pqueue.Iheap.is_empty t.by_spt.(i) then begin
      (* Pin the aggregates back to exactly zero so float cancellation
         drift cannot survive an empty queue. *)
      t.p_work.(i) <- 0.;
      t.p_weight.(i) <- 0.
    end
    else begin
      t.p_work.(i) <- t.p_work.(i) -. t.psize.(s);
      t.p_weight.(i) <- t.p_weight.(i) -. t.weight.(s)
    end;
    true
  end

let[@rejlint.hot] pend_count t i = Pqueue.Iheap.size t.by_spt.(i)
let[@rejlint.hot] pend_heads t = t.p_head
let[@rejlint.hot] pend_work t i = t.p_work.(i)
let[@rejlint.hot] pend_weight t i = t.p_weight.(i)
let[@rejlint.hot] pend_iter t i ~f = Pqueue.Iheap.iter t.by_spt.(i) ~f
let[@rejlint.hot] head_spt t i = Pqueue.Iheap.min_id t.by_spt.(i)

(* First head lookup on a dormant order: allocate its position column,
   fill its heaps from the current pending sets and return the column;
   the caller flips the order live.  The rebuilt layout differs from the
   always-incremental one, but the only observable — the minimum under a
   strict total order — does not depend on layout. *)
let wake t aux ~less =
  let pos = Array.make t.cap (-1) in
  for i = 0 to t.m - 1 do
    Pqueue.Iheap.iter t.by_spt.(i) ~f:(fun s -> Pqueue.Iheap.add aux.(i) ~less t ~pos ~id:s)
  done;
  pos

(* First query of a dormant index: the same fill, into the treaps. *)
let wake_index t =
  for i = 0 to t.m - 1 do
    Pqueue.Iheap.iter t.by_spt.(i) ~f:(fun s -> t.ix_root.(i) <- ix_insert t s t.ix_root.(i))
  done;
  t.live_index <- true

let[@rejlint.hot] pend_split t i ~job =
  if not t.live_index then wake_index t;
  let s = t.split in
  s.work_before <- 0.;
  s.count_after <- float_of_int (ix_split t t.jobs.(job).Job.sizes i job t.ix_root.(i) 0);
  s

let[@rejlint.hot] index_max t i =
  if not t.live_index then wake_index t;
  let r = t.ix_root.(i) in
  if r < 0 then -1 else ix_rightmost t r

let[@rejlint.hot] head_density t i =
  if not t.live_density then begin
    t.pos_density <- wake t t.by_density ~less:less_density;
    t.live_density <- true
  end;
  Pqueue.Iheap.min_id t.by_density.(i)

let[@rejlint.hot] head_size_id t i =
  if not t.live_size_id then begin
    t.pos_size_id <- wake t t.by_size_id ~less:less_size_id;
    t.live_size_id <- true
  end;
  Pqueue.Iheap.min_id t.by_size_id.(i)

let[@rejlint.hot] head_fifo t i =
  if not t.live_fifo then begin
    t.pos_fifo <- wake t t.by_fifo ~less:less_fifo;
    t.live_fifo <- true
  end;
  Pqueue.Iheap.min_id t.by_fifo.(i)

(* ------------------------------------------------------------------ *)
(* Running slots. *)

let[@rejlint.hot] run_job t i = t.run_job.(i)
let[@rejlint.hot] run_started t i = t.run_started.(i)
let[@rejlint.hot] run_rate t i = t.run_rate.(i)
let[@rejlint.hot] run_finish t i = t.run_finish.(i)
let[@rejlint.hot] epoch t i = t.epoch.(i)
let[@rejlint.hot] bump_epoch t i = t.epoch.(i) <- t.epoch.(i) + 1

let[@rejlint.hot] set_running t i ~job ~started ~rate ~finish =
  t.a_starts <- t.a_starts + 1;
  t.run_job.(i) <- job;
  t.run_started.(i) <- started;
  t.run_rate.(i) <- rate;
  t.run_finish.(i) <- finish

let[@rejlint.hot] clear_running t i = t.run_job.(i) <- -1

(* ------------------------------------------------------------------ *)
(* Events.  One shared [seq] counter numbers arrivals (as they are fed,
   in release order) and completions (as starts happen), so tags — and
   therefore equal-time ordering — are deterministic. *)

let[@rejlint.hot] push_finish t ~machine ~time =
  t.seq <- t.seq + 1;
  Pqueue.Events.push t.events ~key:time
    ~tag:(Pqueue.Events.Key.finish_tag ~seq:t.seq)
    ~payload:(Pqueue.Events.Key.finish_payload ~machine ~epoch:t.epoch.(machine))

(* Bounded pop for [Driver.Session.drain_until]: stop at the horizon.
   [~limit:infinity] pops unconditionally (all queued keys are finite),
   which is how a session's close drains the queue dry. *)
let[@rejlint.hot] next_event_before t ~limit = Pqueue.Events.pop_before t.events ~limit
let[@rejlint.hot] events_pushed t = t.seq

(* Smallest queued event key, or [infinity] when the queue is idle — the
   serve loop's "how far may I drain without outrunning the stream"
   probe. *)
let next_key t = if Pqueue.Events.is_empty t.events then infinity else Pqueue.Events.peek_key t.events
let[@rejlint.hot] ev_time t = Pqueue.Events.key t.events
let[@rejlint.hot] ev_tag t = Pqueue.Events.tag t.events
let[@rejlint.hot] ev_payload t = Pqueue.Events.payload t.events

(* ------------------------------------------------------------------ *)
(* Segments and accounting.  The operation order is pinned by the
   goldens — float addition is not associative, and they demand
   byte-identity, not closeness. *)

let grow_segments t =
  let cap = Array.length t.seg_job in
  if t.seg_len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nj = Array.make ncap 0
    and nm = Array.make ncap 0
    and na = Array.make ncap 0.
    and no = Array.make ncap 0.
    and ns = Array.make ncap 0. in
    Array.blit t.seg_job 0 nj 0 t.seg_len;
    Array.blit t.seg_machine 0 nm 0 t.seg_len;
    Array.blit t.seg_start 0 na 0 t.seg_len;
    Array.blit t.seg_stop 0 no 0 t.seg_len;
    Array.blit t.seg_speed 0 ns 0 t.seg_len;
    t.seg_job <- nj;
    t.seg_machine <- nm;
    t.seg_start <- na;
    t.seg_stop <- no;
    t.seg_speed <- ns
  end

let[@rejlint.hot] lay_segment t ~job ~machine ~start ~stop ~speed =
  (* Rolling retirement folds the segment straight into the energy and
     makespan accumulators below without storing it — the whole point of
     the mode is that memory stays independent of run length. *)
  if not t.retire then begin
    grow_segments t;
    let s = t.seg_len in
    t.seg_job.(s) <- t.ext.(job);
    t.seg_machine.(s) <- machine;
    t.seg_start.(s) <- start;
    t.seg_stop.(s) <- stop;
    t.seg_speed.(s) <- speed;
    t.seg_len <- s + 1
  end;
  t.facc.(f_energy) <- t.facc.(f_energy) +. ((stop -. start) *. (speed ** alpha t machine));
  if stop > t.facc.(f_makespan) then t.facc.(f_makespan) <- stop

let[@rejlint.hot] account_completion t s finish =
  let f = finish -. t.release.(s) in
  t.a_completed <- t.a_completed + 1;
  t.facc.(f_flow) <- t.facc.(f_flow) +. f;
  t.facc.(f_wflow) <- t.facc.(f_wflow) +. (t.weight.(s) *. f);
  if f > t.facc.(f_max_flow) then t.facc.(f_max_flow) <- f;
  let j = t.jobs.(s) in
  let stretch = f /. j.Job.sizes.(j.Job.best_machine) in
  if stretch > t.facc.(f_max_stretch) then t.facc.(f_max_stretch) <- stretch

let[@rejlint.hot] account_rejection t s time ~was_running =
  let f = time -. t.release.(s) in
  t.a_rejected <- t.a_rejected + 1;
  t.facc.(f_rej_flow) <- t.facc.(f_rej_flow) +. f;
  t.facc.(f_rej_wflow) <- t.facc.(f_rej_wflow) +. (t.weight.(s) *. f);
  t.facc.(f_rej_weight) <- t.facc.(f_rej_weight) +. t.weight.(s);
  if was_running then t.a_mid_run <- t.a_mid_run + 1

(* ------------------------------------------------------------------ *)
(* Outcomes. *)

let[@rejlint.hot] check_undecided t s =
  if t.out_kind.(s) <> out_none then
    (invalid_arg (Printf.sprintf "Flat_state: job %d already decided" t.ext.(s)) [@rejlint.cold])

let[@rejlint.hot] outcome_completed t ~job ~machine ~start ~speed ~finish =
  check_undecided t job;
  t.out_kind.(job) <- out_completed;
  t.out_machine.(job) <- machine;
  t.out_t0.(job) <- start;
  t.out_speed.(job) <- speed;
  t.out_finish.(job) <- finish

let[@rejlint.hot] outcome_rejected t ~job ~machine ~time ~was_running =
  check_undecided t job;
  t.out_kind.(job) <- out_rejected;
  t.out_machine.(job) <- machine;
  t.out_t0.(job) <- time;
  t.out_running.(job) <- was_running

(* ------------------------------------------------------------------ *)
(* Live metrics, read out of the accumulators. *)

let[@rejlint.hot] completed t = t.a_completed
let[@rejlint.hot] rejected t = t.a_rejected
let[@rejlint.hot] mid_run t = t.a_mid_run
let[@rejlint.hot] starts t = t.a_starts
let[@rejlint.hot] restarts t = t.a_restarts
let[@rejlint.hot] flow t = t.facc.(f_flow)
let[@rejlint.hot] wflow t = t.facc.(f_wflow)
let[@rejlint.hot] rej_flow t = t.facc.(f_rej_flow)
let[@rejlint.hot] rej_wflow t = t.facc.(f_rej_wflow)
let[@rejlint.hot] max_flow t = t.facc.(f_max_flow)
let[@rejlint.hot] max_stretch t = t.facc.(f_max_stretch)
let[@rejlint.hot] energy t = t.facc.(f_energy)
let[@rejlint.hot] makespan t = t.facc.(f_makespan)
let[@rejlint.hot] rej_weight t = t.facc.(f_rej_weight)

(* ------------------------------------------------------------------ *)
(* Materialization: the one deliberately boxing step, run once at the end
   of a simulation.  Segments go to the builder in insertion order and
   outcomes by slot, under their external ids (the builder stores them in
   an id-indexed array, so the order of [set_outcome] calls is
   immaterial).  Without retirement no slot is ever reused, so every
   job's outcome is still at its slot. *)

let to_schedule t instance =
  if t.retire then
    invalid_arg "Flat_state.to_schedule: segments were retired (rolling-retirement mode)";
  if Instance.m instance <> t.m || Instance.n instance <> t.n then
    invalid_arg
      (Printf.sprintf
         "Flat_state.to_schedule: instance has %d machines and %d jobs, state %d and %d"
         (Instance.m instance) (Instance.n instance) t.m t.n);
  let b = Schedule.builder instance in
  for s = 0 to t.seg_len - 1 do
    Schedule.add_segment b
      {
        Schedule.job = t.seg_job.(s);
        machine = t.seg_machine.(s);
        start = t.seg_start.(s);
        stop = t.seg_stop.(s);
        speed = t.seg_speed.(s);
      }
  done;
  for s = 0 to t.slots - 1 do
    let k = t.out_kind.(s) in
    if k = out_completed then
      Schedule.set_outcome b t.ext.(s)
        (Outcome.Completed
           {
             machine = t.out_machine.(s);
             start = t.out_t0.(s);
             speed = t.out_speed.(s);
             finish = t.out_finish.(s);
           })
    else if k = out_rejected then
      Schedule.set_outcome b t.ext.(s)
        (Outcome.Rejected
           {
             time = t.out_t0.(s);
             assigned_to = Some t.out_machine.(s);
             was_running = t.out_running.(s);
           })
  done;
  Schedule.finalize b

(* The index at machine [i]: in-order slots, or [None] when some node
   breaks the heap order on priorities or carries a count/work that
   differs from the one recomputed from its children. *)
let index_check t i =
  let ok = ref true in
  let rec walk node acc =
    if node < 0 then acc
    else begin
      let l = t.ix_left.(node) and r = t.ix_right.(node) in
      let count_of c = if c < 0 then 0 else t.ix_count.(c) in
      let work_of c = if c < 0 then 0. else t.ix_work.(c) in
      if (l >= 0 && above t l node) || (r >= 0 && above t r node) then ok := false;
      if t.ix_count.(node) <> count_of l + 1 + count_of r then ok := false;
      if not (Float.equal t.ix_work.(node) (work_of l +. t.psize.(node) +. work_of r))
      then ok := false;
      walk l (node :: walk r acc)
    end
  in
  let slots = walk t.ix_root.(i) [] in
  if !ok then Some slots else None

(* The slot allocator: every slot below the high-water mark is either
   held by exactly one id in [ids] or on the free list, never both. *)
let slots_check t =
  let held = Array.make (max 1 t.slots) 0 in
  let ok = ref (t.ids.Idmap.len + t.nfree = t.slots && t.slots <= t.cap) in
  Array.iter
    (fun k ->
      if k >= 0 then begin
        let s = Idmap.find t.ids k in
        if s < 0 || s >= t.slots || t.ext.(s) <> k then ok := false
        else held.(s) <- held.(s) + 1
      end)
    t.ids.Idmap.keys;
  for f = 0 to t.nfree - 1 do
    let s = t.free.(f) in
    if s < 0 || s >= t.slots then ok := false else held.(s) <- held.(s) + 1
  done;
  for s = 0 to t.slots - 1 do
    if held.(s) <> 1 then ok := false
  done;
  !ok

let invariant t =
  let ok = ref (slots_check t) in
  (* Each order's heaps share one position column, which registers
     exactly the slots they hold between them. *)
  let heaps_ok heaps ~less ~pos = Pqueue.Iheap.invariant heaps ~less t ~pos in
  if not (heaps_ok t.by_spt ~less:less_spt ~pos:t.pos_spt) then ok := false;
  if not (heaps_ok t.by_density ~less:less_density ~pos:t.pos_density) then ok := false;
  if not (heaps_ok t.by_size_id ~less:less_size_id ~pos:t.pos_size_id) then ok := false;
  if not (heaps_ok t.by_fifo ~less:less_fifo ~pos:t.pos_fifo) then ok := false;
  for i = 0 to t.m - 1 do
    let k = Pqueue.Iheap.size t.by_spt.(i) in
    (* A slot pending on [i] carries its size there as its order key. *)
    Pqueue.Iheap.iter t.by_spt.(i) ~f:(fun s ->
        if not (Float.equal t.psize.(s) (size t ~machine:i ~job:s)) then ok := false);
    (* The head column holds the SPT head's size, [infinity] when empty. *)
    let h = Pqueue.Iheap.min_id t.by_spt.(i) in
    if not (Float.equal t.p_head.(i) (if h < 0 then infinity else t.psize.(h))) then ok := false;
    (* A live auxiliary order mirrors [by_spt] exactly; a dormant one
       holds nothing at all. *)
    let aux_ok live aux = Pqueue.Iheap.size aux = if live then k else 0 in
    if not (aux_ok t.live_density t.by_density.(i)) then ok := false;
    if not (aux_ok t.live_size_id t.by_size_id.(i)) then ok := false;
    if not (aux_ok t.live_fifo t.by_fifo.(i)) then ok := false;
    (* The live index holds exactly [by_spt]'s slots, strictly increasing
       in order; with the heap order on priorities that makes it the one
       treap over that set, so waking it late cannot change its shape. *)
    match index_check t i with
    | None -> ok := false
    | Some slots ->
        if List.length slots <> (if t.live_index then k else 0) then ok := false;
        if not (List.for_all (fun s -> Pqueue.Iheap.mem t.by_spt.(i) ~pos:t.pos_spt ~id:s) slots)
        then
          ok := false;
        let rec sorted = function
          | a :: (b :: _ as rest) -> less_spt t a b && sorted rest
          | _ -> true
        in
        if not (sorted slots) then ok := false
  done;
  !ok
