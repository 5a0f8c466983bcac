open Sched_model
open Sched_sim

let estimated_completion view i (j : Job.t) =
  Driver.remaining_time view i +. Driver.pending_work view i +. Job.size j i

(* [head] picks the next job to serve: one of the driver's O(1) indexed
   head accessors, replacing the seed's linear pending scan. *)
let make name head =
  let init _ = () in
  let on_arrival () view (j : Job.t) =
    (* [view] lacks the instance; recover machine count from the job. *)
    let m = Array.length j.Job.sizes in
    let best = ref None in
    for i = 0 to m - 1 do
      if Job.eligible j i then begin
        let c = estimated_completion view i j in
        match !best with
        | Some (_, c') when c' <= c -> ()
        | _ -> best := Some (i, c)
      end
    done;
    let target = match !best with Some (i, _) -> i | None -> assert false in
    Driver.dispatch target
  in
  let select () view i =
    match head view i with
    | None -> None
    | Some (chosen : Job.t) -> Some { Driver.job = chosen.Job.id; speed = 1.0 }
  in
  { Driver.name; init; on_arrival; select }

let fifo = make "greedy-fifo" Driver.pending_earliest
let spt = make "greedy-spt" Driver.pending_shortest