open Sched_model
open Sched_sim

type config = { eps : float; rule1 : bool; rule2 : bool }

let config ?(rule1 = true) ?(rule2 = true) ~eps () =
  if not (eps > 0. && eps < 1.) then
    invalid_arg "Flow_reject_weighted.config: eps must be in (0,1)";
  { eps; rule1; rule2 }

type state = {
  cfg : config;
  instance : Instance.t;
  mutable v : float array;  (** Weight accumulated against the running job, by slot. *)
  c : float array;  (** Weight accumulated per machine since last reset. *)
  mutable rej1 : int;
  mutable rej2 : int;
}

(* Highest density first; ties by release then id. *)
let precede i (a : Job.t) (b : Job.t) =
  let da = a.weight /. Job.size a i and db = b.weight /. Job.size b i in
  if da <> db then da > db
  else if a.release <> b.release then a.release < b.release
  else a.id < b.id

(* Largest processing time among pending plus the just-dispatched job (for
   Rule 2w's victim): [p_ij] descending, ties by larger id — exactly the
   order of the driver's [pending_longest_tie_id] index. *)
let largest_pending view i (j_new : Job.t) =
  let bigger (a : Job.t) (b : Job.t) =
    let pa = Job.size a i and pb = Job.size b i in
    if pa <> pb then pa > pb else a.id > b.id
  in
  match Driver.pending_longest_tie_id view i with
  | None -> j_new
  | Some w -> if bigger w j_new then w else j_new

let lambda_ij eps view i (j : Job.t) =
  let pij = Job.size j i in
  let before = ref 0. and after_w = ref 0. in
  Driver.pending_iter view i (fun (l : Job.t) ->
      if precede i l j then before := !before +. Job.size l i else after_w := !after_w +. l.weight);
  (j.weight *. ((pij /. eps) +. !before +. pij)) +. (!after_w *. pij)

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
  match !best with Some (i, _) -> i | None -> assert false

let init cfg instance =
  {
    cfg;
    instance;
    v = Array.make (Instance.n instance) 0.;
    c = Array.make (Instance.m instance) 0.;
    rej1 = 0;
    rej2 = 0;
  }

(* Streaming sessions init with zero jobs; the per-job counters grow on
   first sight of a higher slot (batch runs pre-size to n). *)
let ensure st slot =
  let len = Array.length st.v in
  if slot >= len then begin
    let cap = max 16 (max (slot + 1) (2 * len)) in
    let nv = Array.make cap 0. in
    Array.blit st.v 0 nv 0 len;
    st.v <- nv
  end

let on_arrival st view (j : Job.t) =
  let target = argmin_machine st.instance j (fun i -> lambda_ij st.cfg.eps view i j) in
  ensure st (Driver.slot view j);
  let eps = st.cfg.eps in
  st.c.(target) <- st.c.(target) +. j.weight;
  let rejections = ref [] in
  (match Driver.running_on view target with
  | Some r ->
      let k = r.Driver.job in
      let ks = Driver.slot view k in
      st.v.(ks) <- st.v.(ks) +. j.weight;
      if st.cfg.rule1 && st.v.(ks) > k.Job.weight /. eps then begin
        rejections := k.Job.id :: !rejections;
        st.rej1 <- st.rej1 + 1
      end
  | None -> ());
  if st.cfg.rule2 then begin
    let victim = largest_pending view target j in
    if st.c.(target) >= (1. +. (1. /. eps)) *. victim.Job.weight then begin
      rejections := victim.Job.id :: !rejections;
      st.c.(target) <- 0.;
      st.rej2 <- st.rej2 + 1
    end
  end;
  { Driver.dispatch_to = target; reject = List.rev !rejections; restart = [] }

let select st view i =
  match Driver.pending_densest view i with
  | None -> None
  | Some head ->
      (* A fresh counter for the execution about to begin (which also
         clears whatever a reused slot held). *)
      st.v.(Driver.slot view head) <- 0.;
      Some { Driver.job = head.Job.id; speed = 1.0 }

let policy cfg = { Driver.name = "flow-reject-weighted"; init = init cfg; on_arrival; select }


let run ?trace cfg instance =
  let schedule, st, _ = Driver.run ?trace (policy cfg) instance in
  (schedule, st)
