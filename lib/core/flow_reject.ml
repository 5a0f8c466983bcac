open Sched_model
open Sched_sim

type dispatch_rule = Dual_lambda | Greedy_load

type config = { eps : float; rule1 : bool; rule2 : bool; dispatch : dispatch_rule }

let config ?(rule1 = true) ?(rule2 = true) ?(dispatch = Dual_lambda) ~eps () =
  if not (eps > 0. && eps < 1.) then invalid_arg "Flow_reject.config: eps must be in (0,1)";
  { eps; rule1; rule2; dispatch }

type state = {
  cfg : config;
  m : int;  (** Machines in the fleet. *)
  eps_eff : float;
      (** The effective epsilon [1 / ceil(1/eps)]: integer counters cannot
          trip at a fractional [1/eps], so the algorithm {e is} the paper's
          algorithm run at [eps_eff <= eps] — thresholds below are exactly
          [1/eps_eff] and [1 + 1/eps_eff], and the dual variables must use
          [eps_eff] for Lemma 4 to hold exactly. *)
  thr1 : int;  (** Rule 1 threshold, [1/eps_eff = ceil(1/eps)]. *)
  thr2 : int;  (** Rule 2 threshold, [1 + 1/eps_eff]. *)
  mutable v : int array;  (** Rule 1 counters, by job slot (valid while running). *)
  c : int array;  (** Rule 2 counters, indexed by machine id. *)
  mutable lambda : float array;  (** Dual variables, by job slot. *)
  mutable ids : int array;  (** The job id at each slot, [-1] if none yet: [lambdas]'s key. *)
  mutable rej1 : int;
  mutable rej2 : int;
}

(* The paper's order on the pending set of a fixed machine: shorter
   processing time first, ties by earlier release, then smaller id. *)
let precede i (a : Job.t) (b : Job.t) =
  let pa = Job.size a i and pb = Job.size b i in
  if pa <> pb then pa < pb
  else if a.release <> b.release then a.release < b.release
  else a.id < b.id

let[@inline] greedy_load_cost view i (j : Job.t) =
  Driver.remaining_time view i +. Driver.pending_work view i +. Job.size j i

(* lambda_ij = (1/eps) p_ij + sum_{l <= j} p_il + sum_{l > j} p_ij, where l
   ranges over the pending set of machine i plus j itself ("l <= j" includes
   l = j, contributing p_ij).  The pending set does not yet contain j; the
   driver's order-statistic index returns both pending-dependent terms —
   the work before j and the count after it, in [precede] order — in
   O(log |pending_i|) without allocating.

   The index sums the work before j in tree order, not in a left-to-right
   pass over the pending set.  On dyadic sizes (multiples of a power of
   two, as in the differential suite and the serve-burst workload) every
   grouping is exact, so lambda_ij is bit-identical to the scan's; on
   other sizes the two can differ in the last place, and the seed
   cross-check in the differential suite pins that no dispatch decision
   flips on the uniform [1, 10] family.

   A lower bound on [lambda_ij] from the size [h] of the SPT head of
   machine [i]'s non-empty pending set, with [q = p/eps]:

   - [h < p]: the head precedes [j], and [work_before] is a float sum of
     non-negative terms that includes [h], so it is at least [h];
   - [h > p]: every pending job follows [j], so [count_after >= 1] and
     the last term is at least [p];
   - [h = p]: both pending terms are at least [+0.].

   Round-to-nearest is monotone, so [lambda_ij] is at least the same
   sum with each term replaced by its bound. *)
let[@inline] lambda_bound q p h =
  if h < p then q +. h +. p else if h > p then q +. p +. p else q +. p

(* The dispatch rule: the eligible machine with the least lambda_ij,
   leftmost among equals, with the minimum left in [st.lambda.(slot)].

   Pass 1 walks the eligible machines once.  On an empty pending set
   both pending terms of [lambda_ij] are [+0.], so it is
   [fl(fl(p/eps) + p)], the full formula's bits, in O(1); on a non-empty
   one it takes [lambda_bound] and keeps the lowest.  A machine whose
   [(bound, i)] does not precede the incumbent's [(lambda, i)]
   lexicographically cannot win, so when even the lowest bound does not,
   no pending set is split at all.  Otherwise pass 2 splits exactly the
   non-empty machines whose bound still precedes the incumbent, reusing
   the bound's [q] in the formula above (written out, so [q] stays
   unboxed).  The
   result is the lexicographic minimum of [(lambda_ij, i)], which is the
   leftmost strict minimum an index-order scan keeps.  Costs are never
   NaN (sizes are positive, [eps > 0]).  The incumbents live in local
   refs that never escape (kept unboxed), and the comparisons are written
   out because a helper taking the floats as arguments boxed them, so the
   scan allocates nothing.

   Pass 1 runs once per machine per arrival, so both passes read the
   job's sizes and the driver's pending-head column as hoisted arrays,
   guarded once: both have length [m] (the driver admits no job whose
   vector does not), and after the guard the loops' loads need no bounds
   check.  Sizes are positive or [infinity] ([Job.create] refuses the
   rest), so [p < inf] is [Job.eligible]; [inf] is hoisted so the loops
   do not reload [Stdlib.infinity] through its module block. *)
let[@rejlint.hot] argmin_lambda st view (j : Job.t) slot =
  let eps = st.eps_eff and m = st.m in
  let sizes = j.Job.sizes and heads = Driver.pending_heads view in
  if Array.length sizes < m || Array.length heads < m then
    (invalid_arg "Flow_reject: size vector or pending-head column shorter than m"
    [@rejlint.cold]);
  let best = ref (-1) and best_c = ref 0. in
  let low = ref (-1) and low_b = ref 0. in
  let inf = Float.infinity in
  for i = 0 to m - 1 do
    let p = Array.unsafe_get sizes i in
    if p < inf then begin
      let h = Array.unsafe_get heads i in
      let q = p /. eps in
      if h < inf then begin
        let b = lambda_bound q p h in
        if !low < 0 || b < !low_b then begin
          low := i;
          low_b := b
        end
      end
      else begin
        let c = q +. p in
        if !best < 0 || c < !best_c then begin
          best := i;
          best_c := c
        end
      end
    end
  done;
  if !low >= 0 && (!best < 0 || !low_b < !best_c || (!low_b <= !best_c && !low < !best)) then
    for i = 0 to m - 1 do
      let p = Array.unsafe_get sizes i and h = Array.unsafe_get heads i in
      if p < inf && h < inf then begin
        let q = p /. eps in
        let b = lambda_bound q p h in
        if !best < 0 || b < !best_c || (b <= !best_c && i < !best) then begin
          let s = Driver.pending_split view i j in
          let c = q +. s.Driver.work_before +. p +. (s.Driver.count_after *. p) in
          if !best < 0 || c < !best_c || (c <= !best_c && i < !best) then begin
            best := i;
            best_c := c
          end
        end
      end
    done;
  (assert (!best >= 0) [@rejlint.cold]);
  st.lambda.(slot) <- !best_c;
  !best

(* The greedy ablation's rule: the leftmost strict minimum of the load
   cost, in one index-order scan (a later machine replaces the incumbent
   only when [not (best <= c)]). *)
let argmin_greedy st view (j : Job.t) =
  let best = ref (-1) and best_c = ref 0. in
  for i = 0 to st.m - 1 do
    if Job.eligible j i then begin
      let c = greedy_load_cost view i j in
      if !best < 0 || not (!best_c <= c) then begin
        best := i;
        best_c := c
      end
    end
  done;
  assert (!best >= 0);
  !best

let largest_pending view i (j_new : Job.t) =
  (* Largest-processing-time job among the pending set (the just-dispatched
     job included); "largest" uses the same total order as [precede].  The
     order-statistic index hands over the pending maximum in
     O(log |pending_i|). *)
  match Driver.pending_longest view i with
  | None -> j_new
  | Some w -> if precede i j_new w then w else j_new

let init cfg machines =
  let m = Array.length machines in
  let inv = Float.ceil (1. /. cfg.eps) in
  {
    cfg;
    m;
    eps_eff = 1. /. inv;
    thr1 = int_of_float inv;
    thr2 = int_of_float inv + 1;
    v = [||];
    c = Array.make m 0;
    lambda = [||];
    ids = [||];
    rej1 = 0;
    rej2 = 0;
  }

(* The per-job columns grow on first sight of a higher slot. *)
let ensure st slot =
  let len = Array.length st.v in
  if slot >= len then begin
    let cap = max 16 (max (slot + 1) (2 * len)) in
    let nv = Array.make cap 0 in
    Array.blit st.v 0 nv 0 len;
    st.v <- nv;
    let nl = Array.make cap 0. in
    Array.blit st.lambda 0 nl 0 len;
    st.lambda <- nl;
    let ni = Array.make cap (-1) in
    Array.blit st.ids 0 ni 0 len;
    st.ids <- ni
  end

let on_arrival st view (j : Job.t) =
  let eps = st.eps_eff in
  let slot = Driver.slot view j in
  ensure st slot;
  st.ids.(slot) <- j.id;
  let target =
    match st.cfg.dispatch with
    | Dual_lambda -> argmin_lambda st view j slot
    | Greedy_load ->
        let i = argmin_greedy st view j in
        (* The dual variable is defined from lambda_ij regardless of how we
           dispatched, so the instrumentation stays meaningful in E8. *)
        ignore (argmin_lambda st view j slot);
        i
  in
  st.lambda.(slot) <- eps /. (1. +. eps) *. st.lambda.(slot);
  (* Rejection Rule 1: bump the running job's counter. *)
  st.c.(target) <- st.c.(target) + 1;
  let rejections = ref [] in
  (match Driver.running_on view target with
  | Some r ->
      let k = Driver.slot view r.Driver.job in
      st.v.(k) <- st.v.(k) + 1;
      if st.cfg.rule1 && st.v.(k) >= st.thr1 then begin
        rejections := r.Driver.job.Job.id :: !rejections;
        st.rej1 <- st.rej1 + 1
      end
  | None -> ());
  (* Rejection Rule 2: machine-level counter. *)
  if st.cfg.rule2 && st.c.(target) >= st.thr2 then begin
    let victim = largest_pending view target j in
    rejections := victim.Job.id :: !rejections;
    st.c.(target) <- 0;
    st.rej2 <- st.rej2 + 1
  end;
  { Driver.dispatch_to = target; reject = List.rev !rejections; restart = [] }

let select st view i =
  match Driver.pending_shortest view i with
  | None -> None
  | Some shortest ->
      (* A fresh Rule 1 counter for the execution that is about to begin
         (which also clears whatever a reused slot held). *)
      st.v.(Driver.slot view shortest) <- 0;
      Some { Driver.job = shortest.Job.id; speed = 1.0 }

let policy cfg =
  { Driver.name = "flow-reject"; init = init cfg; on_arrival; select }

(* By job id.  Without retirement no slot is reused, so every job fed
   still has its lambda at its slot. *)
let lambdas st =
  let n = 1 + Array.fold_left max (-1) st.ids in
  let out = Array.make n 0. in
  Array.iteri (fun slot id -> if id >= 0 then out.(id) <- st.lambda.(slot)) st.ids;
  out
let effective_eps st = st.eps_eff
let rule1_rejections st = st.rej1
let rule2_rejections st = st.rej2
