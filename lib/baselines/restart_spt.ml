open Sched_model
open Sched_sim

type config = { kill_factor : float; max_restarts : int }

let config ?(kill_factor = 4.) ?(max_restarts = 2) () =
  if kill_factor <= 1. then invalid_arg "Restart_spt.config: kill_factor must exceed 1";
  if max_restarts < 0 then invalid_arg "Restart_spt.config: max_restarts must be >= 0";
  { kill_factor; max_restarts }

type state = {
  cfg : config;
  m : int;  (** Machines in the fleet. *)
  mutable restarted : int array;  (** Times each job has been killed, by job slot. *)
  mutable total_restarts : int;
}

let init cfg machines =
  { cfg; m = Array.length machines; restarted = [||]; total_restarts = 0 }

(* The per-job counters grow on first sight of a higher slot. *)
let ensure st slot =
  let len = Array.length st.restarted in
  if slot >= len then begin
    let cap = max 16 (max (slot + 1) (2 * len)) in
    let nr = Array.make cap 0 in
    Array.blit st.restarted 0 nr 0 len;
    st.restarted <- nr
  end

let on_arrival st view (j : Job.t) =
  let slot = Driver.slot view j in
  ensure st slot;
  (* The counter only ever grows while the job is in flight, so a reused
     slot must start from zero. *)
  st.restarted.(slot) <- 0;
  (* Greedy estimated-completion dispatch, as the non-rejecting baselines. *)
  let best = ref None in
  for i = 0 to st.m - 1 do
    if Job.eligible j i then begin
      let c = Driver.remaining_time view i +. Driver.pending_work view i +. Job.size j i in
      match !best with
      | Some (_, c') when c' <= c -> ()
      | _ -> best := Some (i, c)
    end
  done;
  let target = match !best with Some (i, _) -> i | None -> assert false in
  let restart =
    match Driver.running_on view target with
    | Some r ->
        let k = r.Driver.job in
        let ks = Driver.slot view k in
        if
          st.restarted.(ks) < st.cfg.max_restarts
          && Driver.remaining_time view target > st.cfg.kill_factor *. Job.size j target
        then begin
          st.restarted.(ks) <- st.restarted.(ks) + 1;
          st.total_restarts <- st.total_restarts + 1;
          [ k.Job.id ]
        end
        else []
    | None -> []
  in
  { Driver.dispatch_to = target; reject = []; restart }

let select _st view i =
  match Driver.pending_shortest view i with
  | None -> None
  | Some shortest -> Some { Driver.job = shortest.Job.id; speed = 1.0 }

let policy cfg = { Driver.name = "restart-spt"; init = init cfg; on_arrival; select }

let restarts st = st.total_restarts

let wasted_work (s : Schedule.t) =
  (* Volume of every segment except each completed job's final one. *)
  let final : (Job.id, Schedule.segment) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (g : Schedule.segment) ->
      match Hashtbl.find_opt final g.Schedule.job with
      | Some g' when g'.Schedule.start >= g.Schedule.start -> ()
      | _ -> Hashtbl.replace final g.Schedule.job g)
    s.Schedule.segments;
  List.fold_left
    (fun acc (g : Schedule.segment) ->
      let is_final =
        match Hashtbl.find_opt final g.Schedule.job with
        | Some g' -> g'.Schedule.start = g.Schedule.start
        | None -> false
      in
      let completed =
        match Schedule.outcome s g.Schedule.job with
        | Outcome.Completed _ -> true
        | Outcome.Rejected _ -> false
      in
      if completed && is_final then acc
      else acc +. ((g.Schedule.stop -. g.Schedule.start) *. g.Schedule.speed))
    0. s.Schedule.segments
