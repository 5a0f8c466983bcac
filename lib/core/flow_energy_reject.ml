open Sched_model
open Sched_sim

type config = { eps : float; gamma : float option }

let config ?gamma ~eps () =
  if not (eps > 0. && eps < 1.) then
    invalid_arg "Flow_energy_reject.config: eps must be in (0,1)";
  (match gamma with
  | Some g when g <= 0. -> invalid_arg "Flow_energy_reject.config: gamma must be positive"
  | _ -> ());
  { eps; gamma }

type state = {
  cfg : config;
  instance : Instance.t;
  gammas : float array;  (** Speed constant per machine. *)
  mutable v : float array;  (** Weight counters of running jobs, by job slot. *)
  mutable lambda : float array;  (** Dual variables, by job slot. *)
  mutable ids : int array;  (** The job id at each slot, [-1] if none yet: [lambdas]'s key. *)
  mutable rej : int;
}

(* Density order: higher w/p first, ties by earlier release then id. *)
let precede i (a : Job.t) (b : Job.t) =
  let da = a.weight /. Job.size a i and db = b.weight /. Job.size b i in
  if da <> db then da > db
  else if a.release <> b.release then a.release < b.release
  else a.id < b.id

(* lambda_ij over the density-sorted pending-plus-j sequence, using prefix
   weights W_l (inclusive of l). *)
let lambda_ij st i (j : Job.t) pending =
  let alpha = (Instance.machine st.instance i).Machine.alpha in
  let gamma = st.gammas.(i) in
  let eps = st.cfg.eps in
  let seq = List.sort (fun a b -> if precede i a b then -1 else 1) (j :: pending) in
  let prefix = ref 0. in
  let upto_j = ref 0. (* sum_{l <= j} p_il / (gamma W_l^(1/alpha)) *)
  and after_w = ref 0. (* sum_{l > j} w_l *)
  and wj_prefix = ref 0. (* W_j *)
  and passed_j = ref false in
  List.iter
    (fun (l : Job.t) ->
      prefix := !prefix +. l.weight;
      if !passed_j then after_w := !after_w +. l.weight
      else begin
        upto_j := !upto_j +. (Job.size l i /. (gamma *. (!prefix ** (1. /. alpha))));
        if l.id = j.id then begin
          passed_j := true;
          wj_prefix := !prefix
        end
      end)
    seq;
  let pij = Job.size j i in
  (j.weight *. ((pij /. eps) +. !upto_j))
  +. (!after_w *. pij /. (gamma *. (!wj_prefix ** (1. /. alpha))))

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

let init cfg instance =
  let n = Instance.n instance in
  let gammas =
    Array.map
      (fun (mc : Machine.t) ->
        match cfg.gamma with
        | Some g -> g
        | None -> Bounds.gamma_best ~eps:cfg.eps ~alpha:mc.Machine.alpha)
      (Array.init (Instance.m instance) (Instance.machine instance))
  in
  {
    cfg;
    instance;
    gammas;
    v = Array.make n 0.;
    lambda = Array.make n 0.;
    ids = Array.make n (-1);
    rej = 0;
  }

(* Streaming sessions init with zero jobs; the per-job columns grow on
   first sight of a higher slot (batch runs pre-size to n). *)
let ensure st slot =
  let len = Array.length st.v in
  if slot >= len then begin
    let cap = max 16 (max (slot + 1) (2 * len)) in
    let nv = Array.make cap 0. in
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
  let target, best =
    argmin_machine st.instance j (fun i -> lambda_ij st i j (Driver.pending view i))
  in
  let slot = Driver.slot view j in
  ensure st slot;
  st.ids.(slot) <- j.id;
  st.lambda.(slot) <- st.cfg.eps /. (1. +. st.cfg.eps) *. best;
  let rejections = ref [] in
  (match Driver.running_on view target with
  | Some r ->
      let k = r.Driver.job in
      let ks = Driver.slot view k in
      st.v.(ks) <- st.v.(ks) +. j.weight;
      if st.v.(ks) > k.Job.weight /. st.cfg.eps then begin
        rejections := [ k.Job.id ];
        st.rej <- st.rej + 1
      end
  | None -> ());
  { Driver.dispatch_to = target; reject = !rejections; restart = [] }

let select st view i =
  match Driver.pending_densest view i with
  | None -> None
  | Some head ->
      let alpha = (Instance.machine st.instance i).Machine.alpha in
      let total_weight = Driver.pending_weight view i in
      let speed = st.gammas.(i) *. (total_weight ** (1. /. alpha)) in
      (* A fresh counter for the execution about to begin (which also
         clears whatever a reused slot held). *)
      st.v.(Driver.slot view head) <- 0.;
      Some { Driver.job = head.Job.id; speed }

let policy cfg = { Driver.name = "flow-energy-reject"; init = init cfg; on_arrival; select }

(* By job id.  Without retirement no slot is reused, so every job fed
   still has its lambda at its slot. *)
let lambdas st =
  let n = 1 + Array.fold_left max (-1) st.ids in
  let out = Array.make n 0. in
  Array.iteri (fun slot id -> if id >= 0 then out.(id) <- st.lambda.(slot)) st.ids;
  out

let gamma_of_machine st i = st.gammas.(i)

let run ?trace cfg instance =
  let schedule, st, _ = Driver.run ?trace (policy cfg) instance in
  (schedule, st)
