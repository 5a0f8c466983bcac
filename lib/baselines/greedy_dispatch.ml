open Sched_model
open Sched_sim

let[@inline] estimated_completion view i (j : Job.t) =
  Driver.remaining_time view i +. Driver.pending_work view i +. Job.size j i

(* [head] picks the next job to serve: one of the driver's O(1) indexed
   head accessors, replacing the seed's linear pending scan. *)
let make name head =
  let init _ = () in
  let on_arrival () view (j : Job.t) =
    (* [view] lacks the instance; recover machine count from the job.
       The leftmost strict minimum of the estimated completion: a later
       machine replaces the incumbent only when [not (best_c <= c)].
       [best]/[best_c] are plain refs, so the scan allocates nothing. *)
    let m = Array.length j.Job.sizes in
    let best = ref (-1) and best_c = ref 0. in
    for i = 0 to m - 1 do
      if Job.eligible j i then begin
        let c = estimated_completion view i j in
        if !best < 0 || not (!best_c <= c) then begin
          best := i;
          best_c := c
        end
      end
    done;
    assert (!best >= 0);
    Driver.dispatch !best
  in
  let select () view i =
    match head view i with
    | None -> None
    | Some (chosen : Job.t) -> Some { Driver.job = chosen.Job.id; speed = 1.0 }
  in
  { Driver.name; init; on_arrival; select }

let fifo = make "greedy-fifo" Driver.pending_earliest
let spt = make "greedy-spt" Driver.pending_shortest