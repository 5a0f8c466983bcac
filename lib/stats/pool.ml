(* A persistent work-sharing domain pool.

   One pool is created per process (or per scope via [with_pool]) and
   reused by every parallel region, replacing the spawn-per-call scheme
   the experiments used to pay for.  Design:

   * One shared FIFO of chunk tasks, guarded by a single mutex and a
     single condition variable.  Workers block on the condition when the
     queue is empty; both "task enqueued" and "batch finished" broadcast.
   * A parallel region ([parallel_map] / [parallel_for]) slices its index
     space into contiguous chunks, enqueues one task per chunk, then the
     *submitting* domain enters a help loop: it keeps popping and running
     tasks — its own or anyone else's — until its batch count reaches
     zero.  Because submitters help instead of blocking, a task that
     calls back into the pool (the experiments do: [Registry.run_all]
     fans out experiments whose bodies fan out seeds) makes progress on
     the same set of domains: no new domain is spawned, no worker waits
     for work only itself could run, so nesting neither deadlocks nor
     oversubscribes.  With [domains = 1] (or a single-element input) a
     region degenerates to a plain inline [Array.map] — byte-identical
     to, and as fast as, sequential code.
   * Determinism: chunk k writes only the result slots of chunk k,
     results are assembled by input index, and the exception surfaced to
     the caller is the one raised at the *lowest* input index, so
     neither chunk boundaries nor domain scheduling are observable.

   This module is the repo's single home for raw concurrency primitives;
   rejlint rule RJL008 keeps Domain.spawn/Atomic/Mutex/Condition out of
   the rest of lib/. *)

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

type t = {
  size : int;  (* Total parallelism, spawned workers + the submitter. *)
  mutex : Mutex.t;
  wake : Condition.t;  (* Signals new work, batch completion, shutdown. *)
  work : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable live : bool;
}

(* The innermost pool currently executing a task on this domain; parallel
   regions started from inside a task reuse it (see [ambient]). *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let size t = t.size

let run_task pool task =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some pool);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) task

(* Workers drain the queue, then sleep; on shutdown they finish whatever
   is still queued before exiting, so [shutdown] never strands a task. *)
let worker_loop pool () =
  Mutex.lock pool.mutex;
  let rec loop () =
    match Queue.take_opt pool.work with
    | Some task ->
        Mutex.unlock pool.mutex;
        run_task pool task;
        Mutex.lock pool.mutex;
        loop ()
    | None ->
        if pool.live then begin
          Condition.wait pool.wake pool.mutex;
          loop ()
        end
  in
  loop ();
  Mutex.unlock pool.mutex

let create ?domains () =
  let size =
    match domains with
    | Some d when d < 1 ->
        invalid_arg (Printf.sprintf "Sched_stats.Pool: domains must be >= 1 (got %d)" d)
    | Some d -> d
    | None -> default_domains ()
  in
  let pool =
    {
      size;
      mutex = Mutex.create ();
      wake = Condition.create ();
      work = Queue.create ();
      workers = [];
      live = true;
    }
  in
  pool.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  let was_live = pool.live in
  pool.live <- false;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex;
  if was_live then begin
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)

(* A chunk body signals "item [i] raised [exn]" by raising this; the
   task wrapper records it in the batch, keeping the lowest index. *)
exception Item_failure of int * exn

type batch = {
  mutable remaining : int;  (* Chunk tasks not yet finished. *)
  mutable failed : (int * exn) option;  (* Lowest raising input index. *)
}

let record_failure pool batch index exn =
  Mutex.lock pool.mutex;
  (match batch.failed with
  | Some (i, _) when i <= index -> ()
  | _ -> batch.failed <- Some (index, exn));
  Mutex.unlock pool.mutex

(* Run one batch of [chunks] tasks: enqueue, then help until done.  The
   submitter pops tasks FIFO like any worker — its own chunks, a sibling
   batch's, or a nested region's — so every live region shares the same
   fixed set of domains.  [task c] must confine failures to
   [Item_failure]. *)
let run_batch pool ~chunks ~task =
  let batch = { remaining = chunks; failed = None } in
  Mutex.lock pool.mutex;
  if not pool.live then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Sched_stats.Pool: pool is shut down"
  end;
  for c = 0 to chunks - 1 do
    Queue.add
      (fun () ->
        (try task c with
        | Item_failure (i, exn) -> record_failure pool batch i exn
        | exn -> record_failure pool batch max_int exn);
        Mutex.lock pool.mutex;
        batch.remaining <- batch.remaining - 1;
        if batch.remaining = 0 then Condition.broadcast pool.wake;
        Mutex.unlock pool.mutex)
      pool.work
  done;
  Condition.broadcast pool.wake;
  let rec help () =
    if batch.remaining > 0 then
      match Queue.take_opt pool.work with
      | Some t ->
          Mutex.unlock pool.mutex;
          run_task pool t;
          Mutex.lock pool.mutex;
          help ()
      | None ->
          Condition.wait pool.wake pool.mutex;
          help ()
  in
  help ();
  Mutex.unlock pool.mutex;
  match batch.failed with Some (_, exn) -> raise exn | None -> ()

(* Chunk size balancing uneven work: ~4 chunks per domain, never more
   chunks than items. *)
let resolve_chunk_size ?chunk_size pool n =
  match chunk_size with
  | Some c when c < 1 -> invalid_arg "Sched_stats.Pool: chunk_size must be >= 1"
  | Some c -> c
  | None -> max 1 ((n + (pool.size * 4) - 1) / (pool.size * 4))

let chunked_run ?chunk_size pool n body =
  let chunk_size = resolve_chunk_size ?chunk_size pool n in
  let chunks = (n + chunk_size - 1) / chunk_size in
  run_batch pool ~chunks ~task:(fun c ->
      let lo = c * chunk_size in
      let hi = min n (lo + chunk_size) in
      let i = ref lo in
      try
        while !i < hi do
          body !i;
          incr i
        done
      with exn -> raise (Item_failure (!i, exn)))

(* The inline degenerate cases still run under [run_task] so that nested
   parallel regions (and the ambient-pool lookup in Exp_util)
   stay on *this* pool instead of escaping to the process default. *)
let parallel_for ?chunk_size pool n f =
  if n > 0 then
    if pool.size = 1 || n = 1 then
      run_task pool (fun () ->
          for i = 0 to n - 1 do
            f i
          done)
    else chunked_run ?chunk_size pool n f

let parallel_map ?chunk_size pool f a =
  let n = Array.length a in
  if n = 0 then [||]
  else if pool.size = 1 || n = 1 then run_task pool (fun () -> Array.map f a)
  else begin
    let results = Array.make n None in
    parallel_for ?chunk_size pool n (fun i -> results.(i) <- Some (f a.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_map_list ?chunk_size pool f l =
  Array.to_list (parallel_map ?chunk_size pool f (Array.of_list l))

(* ------------------------------------------------------------------ *)
(* The process-wide default pool                                       *)

(* Created lazily at [requested_domains] (settable until — or between —
   uses: resizing shuts the old pool down and builds a fresh one).  The
   guard mutex only covers pool lookup/creation, never task execution. *)
let global_mutex = Mutex.create ()
let global : t option ref = ref None
let requested_domains : int option ref = ref None

let locked f =
  Mutex.lock global_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock global_mutex) f

let default () =
  locked (fun () ->
      match !global with
      | Some pool when pool.live -> pool
      | _ ->
          let pool = create ?domains:!requested_domains () in
          global := Some pool;
          pool)

let set_default_domains d =
  if d < 1 then
    invalid_arg (Printf.sprintf "Sched_stats.Pool: domains must be >= 1 (got %d)" d);
  let stale =
    locked (fun () ->
        requested_domains := Some d;
        match !global with
        | Some pool when pool.size <> d ->
            global := None;
            Some pool
        | _ -> None)
  in
  match stale with Some pool -> shutdown pool | None -> ()

let ambient () =
  match Domain.DLS.get current with Some pool when pool.live -> pool | _ -> default ()
