open Sched_model
open Sched_sim

type dispatch_rule = Dual_lambda | Greedy_load

type config = { eps : float; rule1 : bool; rule2 : bool; dispatch : dispatch_rule }

let config ?(rule1 = true) ?(rule2 = true) ?(dispatch = Dual_lambda) ~eps () =
  if not (eps > 0. && eps < 1.) then invalid_arg "Flow_reject.config: eps must be in (0,1)";
  { eps; rule1; rule2; dispatch }

type state = {
  cfg : config;
  instance : Instance.t;
  eps_eff : float;
      (** The effective epsilon [1 / ceil(1/eps)]: integer counters cannot
          trip at a fractional [1/eps], so the algorithm {e is} the paper's
          algorithm run at [eps_eff <= eps] — thresholds below are exactly
          [1/eps_eff] and [1 + 1/eps_eff], and the dual variables must use
          [eps_eff] for Lemma 4 to hold exactly. *)
  thr1 : int;  (** Rule 1 threshold, [1/eps_eff = ceil(1/eps)]. *)
  thr2 : int;  (** Rule 2 threshold, [1 + 1/eps_eff]. *)
  mutable v : int array;  (** Rule 1 counters, indexed by job id (valid while running). *)
  c : int array;  (** Rule 2 counters, indexed by machine id. *)
  mutable lambda : float array;  (** Dual variables, indexed by job id. *)
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

(* lambda_ij = (1/eps) p_ij + sum_{l <= j} p_il + sum_{l > j} p_ij, where l
   ranges over the pending set of machine i plus j itself ("l <= j" includes
   l = j, contributing p_ij).  The pending set does not yet contain j; one
   allocation-free pass suffices, no sort. *)
let lambda_ij eps view i (j : Job.t) =
  let pij = Job.size j i in
  let before = ref 0. and after = ref 0 in
  Driver.pending_iter view i (fun (l : Job.t) ->
      if precede i l j then before := !before +. Job.size l i else incr after);
  (pij /. eps) +. !before +. pij +. (float_of_int !after *. pij)

let greedy_load_cost view i (j : Job.t) =
  Driver.remaining_time view i +. Driver.pending_work view i +. Job.size j i

(* Argmin over eligible machines; deterministic tie-break on machine id. *)
let argmin_machine instance (j : Job.t) cost =
  let best = ref None in
  for i = 0 to Instance.m instance - 1 do
    if Job.eligible j i then begin
      let c = cost i in
      match !best with
      | Some (_, c') when c' <= c -> ()
      | _ -> best := Some (i, c)
    end
  done;
  match !best with Some ic -> ic | None -> assert false

let largest_pending view i (j_new : Job.t) =
  (* Largest-processing-time job among the pending set (the just-dispatched
     job included); "largest" uses the same total order as [precede].  The
     reverse-SPT index hands over the pending maximum in O(1). *)
  match Driver.pending_longest view i with
  | None -> j_new
  | Some w -> if precede i j_new w then w else j_new

let init cfg instance =
  let n = Instance.n instance in
  let inv = Float.ceil (1. /. cfg.eps) in
  {
    cfg;
    instance;
    eps_eff = 1. /. inv;
    thr1 = int_of_float inv;
    thr2 = int_of_float inv + 1;
    v = Array.make n 0;
    c = Array.make (max 1 (Instance.m instance)) 0;
    lambda = Array.make n 0.;
    rej1 = 0;
    rej2 = 0;
  }

(* Streaming sessions init with zero jobs and reveal ids as they arrive;
   the per-job counters grow on first sight of a larger id (batch runs
   pre-size to n, so this never fires there). *)
let ensure st id =
  let len = Array.length st.v in
  if id >= len then begin
    let cap = max 16 (max (id + 1) (2 * len)) in
    let nv = Array.make cap 0 in
    Array.blit st.v 0 nv 0 len;
    st.v <- nv;
    let nl = Array.make cap 0. in
    Array.blit st.lambda 0 nl 0 len;
    st.lambda <- nl
  end

let on_arrival st view (j : Job.t) =
  let eps = st.eps_eff in
  let target, best_lambda =
    match st.cfg.dispatch with
    | Dual_lambda -> argmin_machine st.instance j (fun i -> lambda_ij eps view i j)
    | Greedy_load ->
        let i, _ = argmin_machine st.instance j (fun i -> greedy_load_cost view i j) in
        (* The dual variable is defined from lambda_ij regardless of how we
           dispatched, so the instrumentation stays meaningful in E8. *)
        (i, snd (argmin_machine st.instance j (fun i -> lambda_ij eps view i j)))
  in
  ensure st j.id;
  st.lambda.(j.id) <- eps /. (1. +. eps) *. best_lambda;
  (* Rejection Rule 1: bump the running job's counter. *)
  st.c.(target) <- st.c.(target) + 1;
  let rejections = ref [] in
  (match Driver.running_on view target with
  | Some r ->
      let k = r.Driver.job.Job.id in
      st.v.(k) <- st.v.(k) + 1;
      if st.cfg.rule1 && st.v.(k) >= st.thr1 then begin
        rejections := k :: !rejections;
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
      (* A fresh Rule 1 counter for the execution that is about to begin. *)
      st.v.(shortest.Job.id) <- 0;
      Some { Driver.job = shortest.Job.id; speed = 1.0 }

let policy cfg =
  { Driver.name = "flow-reject"; init = init cfg; on_arrival; select }

let lambdas st = Array.copy st.lambda
let effective_eps st = st.eps_eff
let rule1_rejections st = st.rej1
let rule2_rejections st = st.rej2

let run ?trace ?obs cfg instance =
  let schedule, st, _ = Driver.run ?trace ?obs (policy cfg) instance in
  (schedule, st)
