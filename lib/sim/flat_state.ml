open Sched_model

(* Struct-of-arrays simulation state.

   Everything the driver's inner loop touches per event lives in unboxed
   [float array]s and [int array]s: job columns by id, machine columns by
   machine id, per-machine pending heaps over bare ids
   ([Pqueue.Iheap]), the running slot, the event queue
   ([Pqueue.Events]) and the metric accumulators.  Once the growable
   arrays have warmed up, none of the mutators here allocates on the
   minor heap — the only boxed structures are built at the edges
   ([of_instance], [to_schedule], and the [Job.t] handles policies read
   through the driver's view accessors.

   Schedules are pinned byte-for-byte by the corpus x policy goldens, so
   the float operation order below is load-bearing (float addition is
   not associative), as is the pending heaps' slot layout (policies fold
   floats over [pending_iter]'s heap-array order); the aggregate
   work/weight sums are pinned back to exactly [0.] when a queue
   empties. *)

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

(* Streaming only: fed through [add_job], arrival event queued, not yet
   released.  Indistinguishable from [loc_unreleased] to the driver (both
   fail [loc_is_pending]/[loc_is_running]); it exists so [add_job] can
   reject duplicate ids. *)
let loc_queued = -3
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

type t = {
  mutable instance : Instance.t;
      (* Batch: the full instance.  Streaming: a machines-only stand-in
         until [set_instance] swaps the materialized one in at close. *)
  mutable n : int;  (* jobs known so far; grows in streaming sessions *)
  m : int;
  mutable stride : int;
      (* Row length of the per-(machine, job) matrices below — the job
         capacity.  Equals [n] in batch runs; grows by doubling in
         streaming sessions. *)
  mutable retire : bool;
      (* Rolling-retirement mode: completed/rejected work is folded into
         the accumulators only — no segment store, and the boxed [Job.t]
         handle is dropped — so memory stays bounded by the live set
         plus the flat columns.  [to_schedule] is unavailable. *)
  (* Job columns, indexed by job id (ids are 0..n-1); written once per
     job ([of_instance] or [add_job]), read-only afterwards. *)
  mutable jobs : Job.t array;  (* by id, not release order *)
  mutable release : float array;
  mutable weight : float array;
  mutable min_size : float array;
  mutable size_col : float array;  (* p_ij at [(i * stride) + j] *)
  mutable dens_col : float array;  (* w_j /. p_ij at [(i * stride) + j] *)
  (* Pending sets: four heap orders per machine over bare job ids, the
     order-statistic index below, and the incremental work/weight
     aggregates.  Only [by_spt] is observable as a *layout* (through
     [pend_iter]); the three auxiliary heaps expose nothing but their
     minimum, which each strict total order makes unique regardless of
     heap shape.  They — and the index — are therefore maintained
     lazily: dormant until a policy first queries them, then rebuilt
     from [by_spt] and kept incremental from that point on.  Policies
     that never consult an order never pay for it.  The heaps hold ids
     only; each call passes its order ([less_spt] and friends below) with
     [t] and the machine's row base. *)
  by_spt : Pqueue.Iheap.t array;
  by_density : Pqueue.Iheap.t array;
  by_size_id : Pqueue.Iheap.t array;
  by_fifo : Pqueue.Iheap.t array;
  mutable live_density : bool;
  mutable live_size_id : bool;
  mutable live_fifo : bool;
  (* Order-statistic index: one treap per machine over its pending ids,
     in [less_spt] order (the paper's [precede]), each node carrying its
     subtree's job count and size sum.  A job is pending on at most one
     machine, so the node columns are indexed by job id and shared by
     all machines; only the roots are per machine.  Child links are job
     ids, [-1] for none. *)
  mutable ix_left : int array;
  mutable ix_right : int array;
  mutable ix_count : int array;
  mutable ix_work : float array;
  ix_root : int array;
  mutable live_index : bool;
  split : split;
  p_work : float array;
  p_weight : float array;
  (* Running slot per machine; [run_job.(i) = -1] when idle. *)
  run_job : int array;
  run_started : float array;
  run_rate : float array;
  run_finish : float array;
  epoch : int array;
  (* Job status (see the [loc_*] codes above). *)
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
  (* Outcomes by job id: kind, machine, start-or-rejection time, speed,
     finish, mid-run flag.  Kept even under retirement — [out_kind] is
     what [check_undecided]'s double-decide guard reads, and the arrays
     are already at column capacity. *)
  mutable out_kind : int array;
  mutable out_machine : int array;
  mutable out_t0 : float array;
  mutable out_speed : float array;
  mutable out_finish : float array;
  mutable out_running : bool array;
  (* Segments in insertion order, in growable parallel arrays. *)
  mutable seg_job : int array;
  mutable seg_machine : int array;
  mutable seg_start : float array;
  mutable seg_stop : float array;
  mutable seg_speed : float array;
  mutable seg_len : int;
}

(* The strict orders of the pending heaps and the index: primitive float
   [<]/[>] branches (so [-0. = 0.] and incomparable infinities fall
   through), then the id tie-break.  Each is a top-level function of the
   state and the machine's row [base], so no heap captures a column: the
   columns can be reallocated by [grow_columns], and the state marshals
   as plain data. *)

let[@rejlint.hot] less_spt t base a b =
  let pa = t.size_col.(base + a) and pb = t.size_col.(base + b) in
  if pa < pb then true
  else if pa > pb then false
  else
    let ra = t.release.(a) and rb = t.release.(b) in
    if ra < rb then true else if ra > rb then false else a < b

let[@rejlint.hot] less_density t base a b =
  let da = t.dens_col.(base + a) and db = t.dens_col.(base + b) in
  if da > db then true
  else if da < db then false
  else
    let ra = t.release.(a) and rb = t.release.(b) in
    if ra < rb then true else if ra > rb then false else a < b

let[@rejlint.hot] less_size_id t base a b =
  let pa = t.size_col.(base + a) and pb = t.size_col.(base + b) in
  if pa > pb then true else if pa < pb then false else b < a

let[@rejlint.hot] less_fifo t _base a b =
  let ra = t.release.(a) and rb = t.release.(b) in
  if ra < rb then true else if ra > rb then false else a < b

(* Fill value for the [jobs] column: streaming sessions grow the array
   before the real handles exist, and rolling retirement drops a handle
   the moment its job settles.  Never read back — every consumer goes
   through [loc]/[out_kind] first.  ([Job.t] is private, so the stand-in
   goes through the validating constructor like any other job.) *)
let retired_job = Job.create ~id:0 ~release:0. ~sizes:[| 1. |] ()

let of_instance instance =
  let n = Instance.n instance and m = Instance.m instance in
  if m > Pqueue.Events.Key.max_machine then
    invalid_arg (Printf.sprintf "Flat_state: %d machines exceed the event-key range" m);
  let jobs =
    let by_rel = Instance.jobs_by_release instance in
    if n = 0 then [||]
    else begin
      let a = Array.make n by_rel.(0) in
      Array.iter (fun (j : Job.t) -> a.(j.Job.id) <- j) by_rel;
      a
    end
  in
  let release = Array.make n 0. and weight = Array.make n 0. and min_size = Array.make n 0. in
  Array.iteri
    (fun id (j : Job.t) ->
      release.(id) <- j.Job.release;
      weight.(id) <- j.Job.weight;
      min_size.(id) <- Job.min_size j)
    jobs;
  let size_col = Array.make (max 1 (m * n)) 0. in
  let dens_col = Array.make (max 1 (m * n)) 0. in
  for i = 0 to m - 1 do
    let base = i * n in
    for id = 0 to n - 1 do
      let p = Job.size jobs.(id) i in
      size_col.(base + id) <- p;
      dens_col.(base + id) <- weight.(id) /. p
    done
  done;
  let heap () = Array.init m (fun _ -> Pqueue.Iheap.create ()) in
  let facc = Array.make facc_len 0. in
  facc.(f_total_weight) <- Instance.total_weight instance;
  {
    instance;
    n;
    m;
    stride = n;
    retire = false;
    jobs;
    release;
    weight;
    min_size;
    size_col;
    dens_col;
    by_spt = heap ();
    by_density = heap ();
    by_size_id = heap ();
    by_fifo = heap ();
    live_density = false;
    live_size_id = false;
    live_fifo = false;
    ix_left = Array.make n (-1);
    ix_right = Array.make n (-1);
    ix_count = Array.make n 0;
    ix_work = Array.make n 0.;
    ix_root = Array.make m (-1);
    live_index = false;
    split = { work_before = 0.; count_after = 0. };
    p_work = Array.make m 0.;
    p_weight = Array.make m 0.;
    run_job = Array.make m (-1);
    run_started = Array.make m 0.;
    run_rate = Array.make m 0.;
    run_finish = Array.make m 0.;
    epoch = Array.make m 0;
    loc = Array.make n loc_unreleased;
    events = Pqueue.Events.create ();
    seq = 0;
    facc;
    a_completed = 0;
    a_rejected = 0;
    a_mid_run = 0;
    a_starts = 0;
    a_restarts = 0;
    out_kind = Array.make n out_none;
    out_machine = Array.make n 0;
    out_t0 = Array.make n 0.;
    out_speed = Array.make n 0.;
    out_finish = Array.make n 0.;
    out_running = Array.make n false;
    (* Growth policy for cluster scale: each job lays at most one segment
       unless restarts occur, so presizing to [n] turns the doubling
       cascade (24 reallocation rounds and ~2x transient copies at 10^7
       jobs) into a single allocation.  Restart-heavy runs still grow by
       doubling past [n]. *)
    seg_job = Array.make (max 16 n) 0;
    seg_machine = Array.make (max 16 n) 0;
    seg_start = Array.make (max 16 n) 0.;
    seg_stop = Array.make (max 16 n) 0.;
    seg_speed = Array.make (max 16 n) 0.;
    seg_len = 0;
  }

(* ------------------------------------------------------------------ *)
(* Streaming construction: a state over the machine fleet alone, with job
   columns that grow as [add_job] feeds arrivals in.  Job ids need not
   come in order (instances are not release-sorted by id), but the column
   capacity tracks the largest id seen. *)

let of_stream ~machines =
  (* Machines-only stand-in: validates the fleet (ids 0..m-1) exactly as
     a batch instance would; [set_instance] replaces it at close. *)
  let instance = Instance.create ~name:"stream" ~machines:(Array.copy machines) ~jobs:[] () in
  of_instance instance

(* Double the job capacity to cover [id].  The scalar columns blit; the
   per-(machine, job) matrices re-lay row by row at the new stride.  The
   heaps and the index hold ids only and read the columns through [t] on
   every comparison, so nothing else moves.  Cold: amortized O(1) per fed
   job. *)
let grow_columns t id =
  let cap = t.stride in
  if id >= cap then begin
    let ncap = max 16 (max (id + 1) (2 * cap)) in
    let grow_f a = let b = Array.make ncap 0. in Array.blit a 0 b 0 t.n; b in
    let grow_i fill a = let b = Array.make ncap fill in Array.blit a 0 b 0 t.n; b in
    let njobs = Array.make ncap retired_job in
    Array.blit t.jobs 0 njobs 0 t.n;
    t.jobs <- njobs;
    t.release <- grow_f t.release;
    t.weight <- grow_f t.weight;
    t.min_size <- grow_f t.min_size;
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
    Array.blit t.out_running 0 nrun 0 t.n;
    t.out_running <- nrun;
    let nsz = Array.make (max 1 (t.m * ncap)) 0. in
    let ndn = Array.make (max 1 (t.m * ncap)) 0. in
    for i = 0 to t.m - 1 do
      Array.blit t.size_col (i * cap) nsz (i * ncap) t.n;
      Array.blit t.dens_col (i * cap) ndn (i * ncap) t.n
    done;
    t.size_col <- nsz;
    t.dens_col <- ndn;
    t.stride <- ncap
  end

let add_job t (j : Job.t) =
  let id = j.Job.id in
  if Array.length j.Job.sizes <> t.m then
    invalid_arg
      (Printf.sprintf "Flat_state.add_job: job %d has %d sizes for %d machines" id
         (Array.length j.Job.sizes) t.m);
  grow_columns t id;
  if t.loc.(id) <> loc_unreleased then
    invalid_arg (Printf.sprintf "Flat_state.add_job: job %d already added" id);
  t.jobs.(id) <- j;
  t.release.(id) <- j.Job.release;
  t.weight.(id) <- j.Job.weight;
  t.min_size.(id) <- Job.min_size j;
  for i = 0 to t.m - 1 do
    let p = Job.size j i in
    t.size_col.((i * t.stride) + id) <- p;
    t.dens_col.((i * t.stride) + id) <- j.Job.weight /. p
  done;
  if id >= t.n then t.n <- id + 1;
  t.loc.(id) <- loc_queued;
  t.facc.(f_total_weight) <- t.facc.(f_total_weight) +. j.Job.weight;
  t.seq <- t.seq + 1;
  Pqueue.Events.push t.events ~key:j.Job.release
    ~tag:(Pqueue.Events.Key.arrival_tag ~seq:t.seq)
    ~payload:id

(* Pre-size for a known job count: one growth instead of a doubling
   cascade, and the event queue holds all arrivals at once — how the
   batch wrapper keeps [of_instance]'s allocation profile. *)
let reserve t cap =
  if cap > 0 then begin
    grow_columns t (cap - 1);
    Pqueue.Events.ensure_capacity t.events cap
  end

let set_retire t on = t.retire <- on
let retire t = t.retire

let set_instance t instance =
  if Instance.m instance <> t.m then
    invalid_arg
      (Printf.sprintf "Flat_state.set_instance: %d machines, state has %d" (Instance.m instance)
         t.m);
  if Instance.n instance <> t.n then
    invalid_arg
      (Printf.sprintf "Flat_state.set_instance: %d jobs, state has %d" (Instance.n instance) t.n);
  t.instance <- instance

(* ------------------------------------------------------------------ *)
(* Immutable reads. *)

let[@rejlint.hot] instance t = t.instance
let[@rejlint.hot] n t = t.n
let[@rejlint.hot] m t = t.m
let[@rejlint.hot] job t id = t.jobs.(id)
let[@rejlint.hot] release t id = t.release.(id)
let[@rejlint.hot] weight t id = t.weight.(id)
let[@rejlint.hot] min_size t id = t.min_size.(id)
let[@rejlint.hot] size t ~machine ~job = t.size_col.((machine * t.stride) + job)
let[@rejlint.hot] eligible t ~machine ~job = Float.is_finite (size t ~machine ~job)

(* Candidate-set provenance for the flight recorder: how many machines a
   job is eligible for, and their bitmask (bit [k] for machine [k] up to
   61; higher machines saturate into bit 62).  Accumulator recursion over
   the size column, kept in this module on purpose: the compiler does
   not inline calls inside recursive bodies, so a cross-module accessor
   would box its float result on every probe, while the direct array
   read here stays allocation-free.  [p -. p = 0.] is [Float.is_finite]
   unfolded for the same reason. *)
let[@rejlint.hot] rec cand_mask_from t job k acc =
  if k >= t.m then acc
  else begin
    let p = t.size_col.((k * t.stride) + job) in
    cand_mask_from t job (k + 1)
      (if p -. p = 0. then acc lor (1 lsl (if k <= 61 then k else 62)) else acc)
  end

let[@rejlint.hot] rec cand_count_from t job k acc =
  if k >= t.m then acc
  else begin
    let p = t.size_col.((k * t.stride) + job) in
    cand_count_from t job (k + 1) (if p -. p = 0. then acc + 1 else acc)
  end

let[@rejlint.hot] cand_mask t ~job = cand_mask_from t job 0 0 [@@inline]
let[@rejlint.hot] cand_count t ~job = cand_count_from t job 0 0 [@@inline]
let[@rejlint.hot] density t ~machine ~job = t.dens_col.((machine * t.stride) + job)
let[@rejlint.hot] total_weight t = t.facc.(f_total_weight)
let[@rejlint.hot] alpha t i = (Instance.machine t.instance i).Machine.alpha
let[@rejlint.hot] mach_speed t i = (Instance.machine t.instance i).Machine.speed

(* ------------------------------------------------------------------ *)
(* Clock and status. *)

let[@rejlint.hot] clock t = t.facc.(f_clock)
let[@rejlint.hot] set_clock t v = t.facc.(f_clock) <- v
let[@rejlint.hot] loc t id = t.loc.(id)
let[@rejlint.hot] set_loc t id l = t.loc.(id) <- l
let[@rejlint.hot] account_restart t = t.a_restarts <- t.a_restarts + 1

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

   All operations are recursions over int ids and in-place stores into
   the columns, so none allocates. *)

(* Treap priority: a fixed integer hash of the job id.  Each step
   (multiply by an odd constant, xor with a right shift) is a bijection
   on 63-bit ints, so distinct ids get distinct priorities. *)
let[@rejlint.hot] prio id =
  let x = (id + 1) * 0x1d8e4e27c47d124f in
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545f4914f6cdd1d in
  x lxor (x lsr 29)

(* Recompute a node's count and work from its children. *)
let[@rejlint.hot] ix_fix t base node =
  let l = t.ix_left.(node) and r = t.ix_right.(node) in
  t.ix_count.(node) <-
    (if l < 0 then 0 else t.ix_count.(l)) + 1 + if r < 0 then 0 else t.ix_count.(r);
  t.ix_work.(node) <-
    (if l < 0 then 0. else t.ix_work.(l))
    +. t.size_col.(base + node)
    +. if r < 0 then 0. else t.ix_work.(r)

(* Inserts [id] into the subtree rooted at [node] (machine row [base]) and
   returns the subtree's new root, rotating [id] up while its priority
   beats its parent's. *)
let[@rejlint.hot] rec ix_insert t base id node =
  if node < 0 then begin
    t.ix_left.(id) <- -1;
    t.ix_right.(id) <- -1;
    ix_fix t base id;
    id
  end
  else if less_spt t base id node then begin
    let l = ix_insert t base id t.ix_left.(node) in
    if prio l > prio node then begin
      t.ix_left.(node) <- t.ix_right.(l);
      ix_fix t base node;
      t.ix_right.(l) <- node;
      ix_fix t base l;
      l
    end
    else begin
      t.ix_left.(node) <- l;
      ix_fix t base node;
      node
    end
  end
  else begin
    let r = ix_insert t base id t.ix_right.(node) in
    if prio r > prio node then begin
      t.ix_right.(node) <- t.ix_left.(r);
      ix_fix t base node;
      t.ix_left.(r) <- node;
      ix_fix t base r;
      r
    end
    else begin
      t.ix_right.(node) <- r;
      ix_fix t base node;
      node
    end
  end

(* Joins two subtrees whose keys are all ordered [a] before [b]. *)
let[@rejlint.hot] rec ix_merge t base a b =
  if a < 0 then b
  else if b < 0 then a
  else if prio a > prio b then begin
    t.ix_right.(a) <- ix_merge t base t.ix_right.(a) b;
    ix_fix t base a;
    a
  end
  else begin
    t.ix_left.(b) <- ix_merge t base a t.ix_left.(b);
    ix_fix t base b;
    b
  end

(* Removes [id] (present) from the subtree at [node]; returns the new
   root. *)
let[@rejlint.hot] rec ix_remove t base id node =
  if node < 0 then node
  else if node = id then ix_merge t base t.ix_left.(id) t.ix_right.(id)
  else begin
    if less_spt t base id node then
      t.ix_left.(node) <- ix_remove t base id t.ix_left.(node)
    else t.ix_right.(node) <- ix_remove t base id t.ix_right.(node);
    ix_fix t base node;
    node
  end

(* The prefix query.  Walks from [node] toward [job]'s position: a node
   ordered before [job] adds its own size and its left subtree's work to
   [split.work_before], a node ordered after it adds itself and its
   right subtree to the returned count.  [job] itself, when pending,
   lands on neither side. *)
let[@rejlint.hot] rec ix_split t base job node after =
  if node < 0 then after
  else if node = job then begin
    let l = t.ix_left.(node) and r = t.ix_right.(node) in
    if l >= 0 then t.split.work_before <- t.split.work_before +. t.ix_work.(l);
    if r < 0 then after else after + t.ix_count.(r)
  end
  else if less_spt t base node job then begin
    let l = t.ix_left.(node) in
    t.split.work_before <-
      t.split.work_before +. ((if l < 0 then 0. else t.ix_work.(l)) +. t.size_col.(base + node));
    ix_split t base job t.ix_right.(node) after
  end
  else begin
    let r = t.ix_right.(node) in
    ix_split t base job t.ix_left.(node) (after + 1 + if r < 0 then 0 else t.ix_count.(r))
  end

let[@rejlint.hot] rec ix_leftmost t node =
  let l = t.ix_left.(node) in
  if l < 0 then node else ix_leftmost t l

let[@rejlint.hot] rec ix_rightmost t node =
  let r = t.ix_right.(node) in
  if r < 0 then node else ix_rightmost t r

let[@rejlint.hot] pend_add t i id =
  let base = i * t.stride in
  Pqueue.Iheap.add t.by_spt.(i) ~less:less_spt t base ~id;
  if t.live_density then Pqueue.Iheap.add t.by_density.(i) ~less:less_density t base ~id;
  if t.live_size_id then Pqueue.Iheap.add t.by_size_id.(i) ~less:less_size_id t base ~id;
  if t.live_fifo then Pqueue.Iheap.add t.by_fifo.(i) ~less:less_fifo t base ~id;
  if t.live_index then t.ix_root.(i) <- ix_insert t base id t.ix_root.(i);
  t.p_work.(i) <- t.p_work.(i) +. size t ~machine:i ~job:id;
  t.p_weight.(i) <- t.p_weight.(i) +. t.weight.(id)

let[@rejlint.hot] pend_remove t i id =
  let base = i * t.stride in
  if not (Pqueue.Iheap.remove t.by_spt.(i) ~less:less_spt t base ~id) then false
  else begin
    if t.live_density then
      ignore (Pqueue.Iheap.remove t.by_density.(i) ~less:less_density t base ~id);
    if t.live_size_id then
      ignore (Pqueue.Iheap.remove t.by_size_id.(i) ~less:less_size_id t base ~id);
    if t.live_fifo then ignore (Pqueue.Iheap.remove t.by_fifo.(i) ~less:less_fifo t base ~id);
    if t.live_index then t.ix_root.(i) <- ix_remove t base id t.ix_root.(i);
    if Pqueue.Iheap.is_empty t.by_spt.(i) then begin
      (* Pin the aggregates back to exactly zero so float cancellation
         drift cannot survive an empty queue. *)
      t.p_work.(i) <- 0.;
      t.p_weight.(i) <- 0.
    end
    else begin
      t.p_work.(i) <- t.p_work.(i) -. size t ~machine:i ~job:id;
      t.p_weight.(i) <- t.p_weight.(i) -. t.weight.(id)
    end;
    true
  end

let[@rejlint.hot] pend_count t i = Pqueue.Iheap.size t.by_spt.(i)
let[@rejlint.hot] pend_work t i = t.p_work.(i)
let[@rejlint.hot] pend_weight t i = t.p_weight.(i)
let[@rejlint.hot] pend_iter t i ~f = Pqueue.Iheap.iter t.by_spt.(i) ~f
let[@rejlint.hot] head_spt t i = Pqueue.Iheap.min_id t.by_spt.(i)

(* First head lookup on a dormant order: fill its heaps from the current
   pending sets and flip it live.  The rebuilt layout differs from the
   always-incremental one, but the only observable — the minimum under a
   strict total order — does not depend on layout. *)
let wake t aux ~less =
  for i = 0 to t.m - 1 do
    let base = i * t.stride in
    Pqueue.Iheap.iter t.by_spt.(i) ~f:(fun id -> Pqueue.Iheap.add aux.(i) ~less t base ~id)
  done

(* First query of a dormant index: the same fill, into the treaps. *)
let wake_index t =
  for i = 0 to t.m - 1 do
    let base = i * t.stride in
    Pqueue.Iheap.iter t.by_spt.(i) ~f:(fun id ->
        t.ix_root.(i) <- ix_insert t base id t.ix_root.(i))
  done;
  t.live_index <- true

let[@rejlint.hot] pend_split t i ~job =
  if not t.live_index then wake_index t;
  let s = t.split in
  s.work_before <- 0.;
  s.count_after <- float_of_int (ix_split t (i * t.stride) job t.ix_root.(i) 0);
  s

let[@rejlint.hot] index_min t i =
  if not t.live_index then wake_index t;
  let r = t.ix_root.(i) in
  if r < 0 then -1 else ix_leftmost t r

let[@rejlint.hot] index_max t i =
  if not t.live_index then wake_index t;
  let r = t.ix_root.(i) in
  if r < 0 then -1 else ix_rightmost t r

let[@rejlint.hot] head_density t i =
  if not t.live_density then begin
    wake t t.by_density ~less:less_density;
    t.live_density <- true
  end;
  Pqueue.Iheap.min_id t.by_density.(i)

let[@rejlint.hot] head_size_id t i =
  if not t.live_size_id then begin
    wake t t.by_size_id ~less:less_size_id;
    t.live_size_id <- true
  end;
  Pqueue.Iheap.min_id t.by_size_id.(i)

let[@rejlint.hot] head_fifo t i =
  if not t.live_fifo then begin
    wake t t.by_fifo ~less:less_fifo;
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
    t.seg_job.(s) <- job;
    t.seg_machine.(s) <- machine;
    t.seg_start.(s) <- start;
    t.seg_stop.(s) <- stop;
    t.seg_speed.(s) <- speed;
    t.seg_len <- s + 1
  end;
  t.facc.(f_energy) <- t.facc.(f_energy) +. ((stop -. start) *. (speed ** alpha t machine));
  if stop > t.facc.(f_makespan) then t.facc.(f_makespan) <- stop

let[@rejlint.hot] seg_count t = t.seg_len

let[@rejlint.hot] account_completion t id finish =
  let f = finish -. t.release.(id) in
  t.a_completed <- t.a_completed + 1;
  t.facc.(f_flow) <- t.facc.(f_flow) +. f;
  t.facc.(f_wflow) <- t.facc.(f_wflow) +. (t.weight.(id) *. f);
  if f > t.facc.(f_max_flow) then t.facc.(f_max_flow) <- f;
  let stretch = f /. t.min_size.(id) in
  if stretch > t.facc.(f_max_stretch) then t.facc.(f_max_stretch) <- stretch

let[@rejlint.hot] account_rejection t id time ~was_running =
  let f = time -. t.release.(id) in
  t.a_rejected <- t.a_rejected + 1;
  t.facc.(f_rej_flow) <- t.facc.(f_rej_flow) +. f;
  t.facc.(f_rej_wflow) <- t.facc.(f_rej_wflow) +. (t.weight.(id) *. f);
  t.facc.(f_rej_weight) <- t.facc.(f_rej_weight) +. t.weight.(id);
  if was_running then t.a_mid_run <- t.a_mid_run + 1

(* ------------------------------------------------------------------ *)
(* Outcomes. *)

let[@rejlint.hot] check_undecided t id =
  if t.out_kind.(id) <> out_none then
    (invalid_arg (Printf.sprintf "Flat_state: job %d already decided" id) [@rejlint.cold])

let[@rejlint.hot] outcome_completed t ~job ~machine ~start ~speed ~finish =
  check_undecided t job;
  t.out_kind.(job) <- out_completed;
  t.out_machine.(job) <- machine;
  t.out_t0.(job) <- start;
  t.out_speed.(job) <- speed;
  t.out_finish.(job) <- finish;
  (* Retirement: the settled job's boxed handle — and its per-machine
     sizes array — is the dominant per-job heap cost; drop it the moment
     nothing can read it again. *)
  if t.retire then t.jobs.(job) <- retired_job

let[@rejlint.hot] outcome_rejected t ~job ~machine ~time ~was_running =
  check_undecided t job;
  t.out_kind.(job) <- out_rejected;
  t.out_machine.(job) <- machine;
  t.out_t0.(job) <- time;
  t.out_running.(job) <- was_running;
  if t.retire then t.jobs.(job) <- retired_job

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
   outcomes by
   job id (the builder stores them in an id-indexed array, so the order
   of [set_outcome] calls is immaterial). *)

let to_schedule t =
  if t.retire then
    invalid_arg "Flat_state.to_schedule: segments were retired (rolling-retirement mode)";
  let b = Schedule.builder t.instance in
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
  for id = 0 to t.n - 1 do
    let k = t.out_kind.(id) in
    if k = out_completed then
      Schedule.set_outcome b id
        (Outcome.Completed
           {
             machine = t.out_machine.(id);
             start = t.out_t0.(id);
             speed = t.out_speed.(id);
             finish = t.out_finish.(id);
           })
    else if k = out_rejected then
      Schedule.set_outcome b id
        (Outcome.Rejected
           {
             time = t.out_t0.(id);
             assigned_to = Some t.out_machine.(id);
             was_running = t.out_running.(id);
           })
  done;
  Schedule.finalize b

(* The index at machine [i]: in-order ids, or [None] when some node
   breaks the heap order on priorities or carries a count/work that
   differs from the one recomputed from its children. *)
let index_check t i =
  let base = i * t.stride in
  let ok = ref true in
  let rec walk node acc =
    if node < 0 then acc
    else begin
      let l = t.ix_left.(node) and r = t.ix_right.(node) in
      let count_of c = if c < 0 then 0 else t.ix_count.(c) in
      let work_of c = if c < 0 then 0. else t.ix_work.(c) in
      if (l >= 0 && prio l > prio node) || (r >= 0 && prio r > prio node) then ok := false;
      if t.ix_count.(node) <> count_of l + 1 + count_of r then ok := false;
      if not (Float.equal t.ix_work.(node) (work_of l +. t.size_col.(base + node) +. work_of r))
      then ok := false;
      walk l (node :: walk r acc)
    end
  in
  let ids = walk t.ix_root.(i) [] in
  if !ok then Some ids else None

let invariant t =
  let ok = ref true in
  for i = 0 to t.m - 1 do
    let base = i * t.stride in
    if not (Pqueue.Iheap.invariant t.by_spt.(i) ~less:less_spt t base) then ok := false;
    if not (Pqueue.Iheap.invariant t.by_density.(i) ~less:less_density t base) then ok := false;
    if not (Pqueue.Iheap.invariant t.by_size_id.(i) ~less:less_size_id t base) then ok := false;
    if not (Pqueue.Iheap.invariant t.by_fifo.(i) ~less:less_fifo t base) then ok := false;
    let k = Pqueue.Iheap.size t.by_spt.(i) in
    (* A live auxiliary order mirrors [by_spt] exactly; a dormant one
       holds nothing at all. *)
    let aux_ok live aux = Pqueue.Iheap.size aux = if live then k else 0 in
    if not (aux_ok t.live_density t.by_density.(i)) then ok := false;
    if not (aux_ok t.live_size_id t.by_size_id.(i)) then ok := false;
    if not (aux_ok t.live_fifo t.by_fifo.(i)) then ok := false;
    (* The live index holds exactly [by_spt]'s ids, strictly increasing
       in order; with the heap order on priorities that makes it the one
       treap over that set, so waking it late cannot change its shape. *)
    match index_check t i with
    | None -> ok := false
    | Some ids ->
        if List.length ids <> (if t.live_index then k else 0) then ok := false;
        if not (List.for_all (fun id -> Pqueue.Iheap.mem t.by_spt.(i) ~id) ids) then ok := false;
        let rec sorted = function
          | a :: (b :: _ as rest) -> less_spt t base a b && sorted rest
          | _ -> true
        in
        if not (sorted ids) then ok := false
  done;
  !ok
