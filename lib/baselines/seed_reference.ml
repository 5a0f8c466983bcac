open Sched_model
open Sched_sim

(* Every function below re-derives a policy decision by scanning the
   materialized pending list, exactly as the pre-index implementations did.
   Keep these in lockstep with the optimized modules: the differential
   tests run both on the same instances and require identical schedules. *)

let scan_pending_work view i =
  List.fold_left (fun acc (l : Job.t) -> acc +. Job.size l i) 0. (Driver.pending view i)

let argmin_machine m (j : Job.t) cost =
  let best = ref None in
  for i = 0 to m - 1 do
    if Job.eligible j i then begin
      let c = cost i in
      match !best with
      | Some (_, c') when c' <= c -> ()
      | _ -> best := Some (i, c)
    end
  done;
  match !best with Some ic -> ic | None -> assert false

(* Per-job counters are keyed by external id and learnt one arrival at a
   time, like the policies' own state: a table read only through
   [find_opt] and written through [replace], never iterated. *)
let counter tbl id ~zero = Option.value (Hashtbl.find_opt tbl id) ~default:zero

(* ------------------------------------------------------------------ *)
(* Theorem 1 (unweighted flow-time with rejections). *)

type fr_state = {
  fr_cfg : Rejection.Flow_reject.config;
  fr_m : int;
  fr_eps_eff : float;
  fr_thr1 : int;
  fr_thr2 : int;
  fr_v : (Job.id, int) Hashtbl.t;
  fr_c : int array;
}

let fr_precede i (a : Job.t) (b : Job.t) =
  let pa = Job.size a i and pb = Job.size b i in
  if pa <> pb then pa < pb
  else if a.release <> b.release then a.release < b.release
  else a.id < b.id

let fr_lambda eps i (j : Job.t) pending =
  let pij = Job.size j i in
  let before = ref 0. and after = ref 0 in
  List.iter
    (fun (l : Job.t) -> if fr_precede i l j then before := !before +. Job.size l i else incr after)
    pending;
  (pij /. eps) +. !before +. pij +. (float_of_int !after *. pij)

let flow_reject (cfg : Rejection.Flow_reject.config) =
  let init machines =
    let m = Array.length machines in
    let inv = Float.ceil (1. /. cfg.Rejection.Flow_reject.eps) in
    {
      fr_cfg = cfg;
      fr_m = m;
      fr_eps_eff = 1. /. inv;
      fr_thr1 = int_of_float inv;
      fr_thr2 = int_of_float inv + 1;
      fr_v = Hashtbl.create 64;
      fr_c = Array.make m 0;
    }
  in
  let on_arrival st view (j : Job.t) =
    let eps = st.fr_eps_eff in
    let target =
      match st.fr_cfg.Rejection.Flow_reject.dispatch with
      | Rejection.Flow_reject.Dual_lambda ->
          fst (argmin_machine st.fr_m j (fun i -> fr_lambda eps i j (Driver.pending view i)))
      | Rejection.Flow_reject.Greedy_load ->
          fst
            (argmin_machine st.fr_m j (fun i ->
                 Driver.remaining_time view i +. scan_pending_work view i +. Job.size j i))
    in
    st.fr_c.(target) <- st.fr_c.(target) + 1;
    let rejections = ref [] in
    (match Driver.running_on view target with
    | Some r ->
        let k = r.Driver.job.Job.id in
        let v = counter st.fr_v k ~zero:0 + 1 in
        Hashtbl.replace st.fr_v k v;
        if st.fr_cfg.Rejection.Flow_reject.rule1 && v >= st.fr_thr1 then
          rejections := k :: !rejections
    | None -> ());
    if st.fr_cfg.Rejection.Flow_reject.rule2 && st.fr_c.(target) >= st.fr_thr2 then begin
      let victim =
        List.fold_left
          (fun worst (l : Job.t) -> if fr_precede target worst l then l else worst)
          j (Driver.pending view target)
      in
      rejections := victim.Job.id :: !rejections;
      st.fr_c.(target) <- 0
    end;
    { Driver.dispatch_to = target; reject = List.rev !rejections; restart = [] }
  in
  let select st view i =
    match Driver.pending view i with
    | [] -> None
    | first :: rest ->
        let shortest =
          List.fold_left (fun acc l -> if fr_precede i l acc then l else acc) first rest
        in
        Hashtbl.replace st.fr_v shortest.Job.id 0;
        Some { Driver.job = shortest.Job.id; speed = 1.0 }
  in
  { Driver.name = "ref-flow-reject"; init; on_arrival; select }

(* ------------------------------------------------------------------ *)
(* Weighted extension (density order, weight-based rules). *)

type frw_state = {
  frw_cfg : Rejection.Flow_reject_weighted.config;
  frw_m : int;
  frw_v : (Job.id, float) Hashtbl.t;
  frw_c : float array;
}

let frw_precede i (a : Job.t) (b : Job.t) =
  let da = a.weight /. Job.size a i and db = b.weight /. Job.size b i in
  if da <> db then da > db
  else if a.release <> b.release then a.release < b.release
  else a.id < b.id

let frw_lambda eps i (j : Job.t) pending =
  let pij = Job.size j i in
  let before = ref 0. and after_w = ref 0. in
  List.iter
    (fun (l : Job.t) ->
      if frw_precede i l j then before := !before +. Job.size l i
      else after_w := !after_w +. l.weight)
    pending;
  (j.weight *. ((pij /. eps) +. !before +. pij)) +. (!after_w *. pij)

let flow_reject_weighted (cfg : Rejection.Flow_reject_weighted.config) =
  let init machines =
    let m = Array.length machines in
    { frw_cfg = cfg; frw_m = m; frw_v = Hashtbl.create 64; frw_c = Array.make m 0. }
  in
  let on_arrival st view (j : Job.t) =
    let eps = st.frw_cfg.Rejection.Flow_reject_weighted.eps in
    let target =
      fst (argmin_machine st.frw_m j (fun i -> frw_lambda eps i j (Driver.pending view i)))
    in
    st.frw_c.(target) <- st.frw_c.(target) +. j.weight;
    let rejections = ref [] in
    (match Driver.running_on view target with
    | Some r ->
        let k = r.Driver.job in
        let v = counter st.frw_v k.Job.id ~zero:0. +. j.weight in
        Hashtbl.replace st.frw_v k.Job.id v;
        if st.frw_cfg.Rejection.Flow_reject_weighted.rule1 && v > k.Job.weight /. eps then
          rejections := k.Job.id :: !rejections
    | None -> ());
    if st.frw_cfg.Rejection.Flow_reject_weighted.rule2 then begin
      let bigger (a : Job.t) (b : Job.t) =
        let pa = Job.size a target and pb = Job.size b target in
        if pa <> pb then pa > pb else a.id > b.id
      in
      let victim =
        List.fold_left
          (fun worst l -> if bigger l worst then l else worst)
          j (Driver.pending view target)
      in
      if st.frw_c.(target) >= (1. +. (1. /. eps)) *. victim.Job.weight then begin
        rejections := victim.Job.id :: !rejections;
        st.frw_c.(target) <- 0.
      end
    end;
    { Driver.dispatch_to = target; reject = List.rev !rejections; restart = [] }
  in
  let select st view i =
    match Driver.pending view i with
    | [] -> None
    | first :: rest ->
        let head =
          List.fold_left (fun acc l -> if frw_precede i l acc then l else acc) first rest
        in
        Hashtbl.replace st.frw_v head.Job.id 0.;
        Some { Driver.job = head.Job.id; speed = 1.0 }
  in
  { Driver.name = "ref-flow-reject-weighted"; init; on_arrival; select }

(* ------------------------------------------------------------------ *)
(* Theorem 2 (weighted flow-time plus energy, speed scaling). *)

type fer_state = {
  fer_cfg : Rejection.Flow_energy_reject.config;
  fer_alphas : float array;
  fer_gammas : float array;
  fer_v : (Job.id, float) Hashtbl.t;
}

let fer_lambda st i (j : Job.t) pending =
  let alpha = st.fer_alphas.(i) in
  let gamma = st.fer_gammas.(i) in
  let eps = st.fer_cfg.Rejection.Flow_energy_reject.eps in
  let seq = List.sort (fun a b -> if frw_precede i a b then -1 else 1) (j :: pending) in
  let prefix = ref 0. in
  let upto_j = ref 0. and after_w = ref 0. and wj_prefix = ref 0. and passed_j = ref false in
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

let flow_energy_reject (cfg : Rejection.Flow_energy_reject.config) =
  let init machines =
    let alphas = Array.map (fun (mc : Machine.t) -> mc.Machine.alpha) machines in
    let gammas =
      Array.map
        (fun alpha ->
          match cfg.Rejection.Flow_energy_reject.gamma with
          | Some g -> g
          | None -> Rejection.Bounds.gamma_best ~eps:cfg.Rejection.Flow_energy_reject.eps ~alpha)
        alphas
    in
    { fer_cfg = cfg; fer_alphas = alphas; fer_gammas = gammas; fer_v = Hashtbl.create 64 }
  in
  let on_arrival st view (j : Job.t) =
    let target =
      fst
        (argmin_machine (Array.length st.fer_alphas) j (fun i ->
             fer_lambda st i j (Driver.pending view i)))
    in
    let rejections = ref [] in
    (match Driver.running_on view target with
    | Some r ->
        let k = r.Driver.job in
        let v = counter st.fer_v k.Job.id ~zero:0. +. j.weight in
        Hashtbl.replace st.fer_v k.Job.id v;
        if v > k.Job.weight /. st.fer_cfg.Rejection.Flow_energy_reject.eps then
          rejections := [ k.Job.id ]
    | None -> ());
    { Driver.dispatch_to = target; reject = !rejections; restart = [] }
  in
  let select st view i =
    match Driver.pending view i with
    | [] -> None
    | first :: rest as pending ->
        let head =
          List.fold_left (fun acc l -> if frw_precede i l acc then l else acc) first rest
        in
        let alpha = st.fer_alphas.(i) in
        let total_weight =
          List.fold_left (fun acc (l : Job.t) -> acc +. l.Job.weight) 0. pending
        in
        let speed = st.fer_gammas.(i) *. (total_weight ** (1. /. alpha)) in
        Hashtbl.replace st.fer_v head.Job.id 0.;
        Some { Driver.job = head.Job.id; speed }
  in
  { Driver.name = "ref-flow-energy-reject"; init; on_arrival; select }

(* ------------------------------------------------------------------ *)
(* Non-rejecting greedy baselines. *)

let greedy name pick =
  let on_arrival () view (j : Job.t) =
    let m = Array.length j.Job.sizes in
    let target =
      fst
        (argmin_machine m j (fun i ->
             Driver.remaining_time view i +. scan_pending_work view i +. Job.size j i))
    in
    Driver.dispatch target
  in
  let select () view i =
    match Driver.pending view i with
    | [] -> None
    | first :: rest ->
        let chosen = List.fold_left (fun acc l -> if pick i l acc then l else acc) first rest in
        Some { Driver.job = chosen.Job.id; speed = 1.0 }
  in
  { Driver.name; init = (fun _ -> ()); on_arrival; select }

let greedy_fifo =
  greedy "ref-greedy-fifo" (fun _ (a : Job.t) (b : Job.t) ->
      if a.release <> b.release then a.release < b.release else a.id < b.id)

let greedy_spt = greedy "ref-greedy-spt" fr_precede

(* ------------------------------------------------------------------ *)
(* Immediate rejection heuristics. *)

let immediate_reject ~eps heuristic =
  if not (eps > 0. && eps < 1.) then
    invalid_arg "Seed_reference.immediate_reject: eps must be in (0,1)";
  let seen = ref 0 and rejected = ref 0 in
  let init _ =
    seen := 0;
    rejected := 0
  in
  let on_arrival () view (j : Job.t) =
    incr seen;
    let m = Array.length j.Job.sizes in
    let target =
      fst
        (argmin_machine m j (fun i ->
             Driver.remaining_time view i +. scan_pending_work view i +. Job.size j i))
    in
    let budget_ok = float_of_int (!rejected + 1) <= eps *. float_of_int !seen in
    let reject_now =
      budget_ok
      &&
      match heuristic with
      | Immediate_reject.Never -> false
      | Immediate_reject.Largest_over factor ->
          let pij = Job.size j target in
          let pending = Driver.pending view target in
          let count = List.length pending in
          count > 0
          &&
          let avg = scan_pending_work view target /. float_of_int count in
          pij > factor *. avg
      | Immediate_reject.Load_threshold factor ->
          let backlog = Driver.remaining_time view target +. scan_pending_work view target in
          backlog > factor *. Job.size j target
    in
    if reject_now then begin
      incr rejected;
      { Driver.dispatch_to = target; reject = [ j.id ]; restart = [] }
    end
    else Driver.dispatch target
  in
  let select () view i =
    match Driver.pending view i with
    | [] -> None
    | first :: rest ->
        let chosen =
          List.fold_left (fun acc l -> if fr_precede i l acc then l else acc) first rest
        in
        Some { Driver.job = chosen.Job.id; speed = 1.0 }
  in
  {
    Driver.name = "ref-" ^ Immediate_reject.name_of heuristic;
    init;
    on_arrival;
    select;
  }

(* ------------------------------------------------------------------ *)
(* Restart-SPT baseline. *)

type rs_state = {
  rs_cfg : Restart_spt.config;
  rs_m : int;
  rs_restarted : (Job.id, int) Hashtbl.t;
}

let restart_spt (cfg : Restart_spt.config) =
  let init machines =
    { rs_cfg = cfg; rs_m = Array.length machines; rs_restarted = Hashtbl.create 64 }
  in
  let on_arrival st view (j : Job.t) =
    let target =
      fst
        (argmin_machine st.rs_m j (fun i ->
             Driver.remaining_time view i +. scan_pending_work view i +. Job.size j i))
    in
    let restart =
      match Driver.running_on view target with
      | Some r ->
          let k = r.Driver.job.Job.id in
          let restarted = counter st.rs_restarted k ~zero:0 in
          if
            restarted < st.rs_cfg.Restart_spt.max_restarts
            && Driver.remaining_time view target
               > st.rs_cfg.Restart_spt.kill_factor *. Job.size j target
          then begin
            Hashtbl.replace st.rs_restarted k (restarted + 1);
            [ k ]
          end
          else []
      | None -> []
    in
    { Driver.dispatch_to = target; reject = []; restart }
  in
  let select _st view i =
    match Driver.pending view i with
    | [] -> None
    | first :: rest ->
        let shortest =
          List.fold_left (fun acc l -> if fr_precede i l acc then l else acc) first rest
        in
        Some { Driver.job = shortest.Job.id; speed = 1.0 }
  in
  { Driver.name = "ref-restart-spt"; init; on_arrival; select }
