open Sched_model
module Rec = Sched_obs.Recorder
module IM = Map.Make (Int)

(* A job in flight: fed, no terminal row yet. *)
type job_state = {
  job : Job.t;
  mutable on : int;  (** machine running it, -1 when not running *)
  mutable segments : int;  (** segments laid so far *)
}

type t = {
  m : int;
  allow_restarts : bool;
  mutable jobs : job_state IM.t;
  (* The segment open on each machine: its job (-1 when idle), start and
     rate; and the last closed one, for the overlap check. *)
  run_job : int array;
  run_start : float array;
  run_rate : float array;
  last_job : int array;
  last_start : float array;
  last_stop : float array;
  mutable found : Violation.t list;  (** newest first *)
}

let create ?(allow_restarts = false) ~machines () =
  if machines < 1 then invalid_arg "Stream_check.create: machines must be >= 1";
  {
    m = machines;
    allow_restarts;
    jobs = IM.empty;
    run_job = Array.make machines (-1);
    run_start = Array.make machines 0.;
    run_rate = Array.make machines 0.;
    last_job = Array.make machines (-1);
    last_start = Array.make machines 0.;
    last_stop = Array.make machines neg_infinity;
    found = [];
  }

let add t ?job ?machine ?at check fmt =
  Printf.ksprintf (fun d -> t.found <- Violation.make ?job ?machine ?at check d :: t.found) fmt

(* The validator's tolerance: simulation arithmetic is a handful of float
   operations per segment. *)
let vol_close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max a b)

let feed t (j : Job.t) =
  let id = j.Job.id in
  if IM.mem id t.jobs then add t ~job:id Violation.Exactly_once "fed again while still in flight"
  else t.jobs <- IM.add id { job = j; on = -1; segments = 0 } t.jobs

let in_flight t id ~what ~at =
  let js = IM.find_opt id t.jobs in
  if Option.is_none js then
    add t ~job:id ~at Violation.Exactly_once "%s row for a job not in flight (settled or never fed)"
      what;
  js

(* Closes the segment [js] has open at [time], records it as its
   machine's last and returns its volume.  The driver lays a completed
   job's segment whatever its length, so [~always] checks it is not
   empty; a reject or restart at the instant of the start lays none, and
   the result is [None]. *)
let stop_segment t js ~time ~always =
  let i = js.on and id = js.job.Job.id in
  let start = t.run_start.(i) in
  js.on <- -1;
  t.run_job.(i) <- -1;
  if time > start || always then begin
    if not (time > start) then
      add t ~job:id ~machine:i ~at:start Violation.Segment_bounds
        "empty or reversed segment [%g,%g]" start time;
    t.last_job.(i) <- id;
    t.last_start.(i) <- start;
    t.last_stop.(i) <- time;
    js.segments <- js.segments + 1;
    Some ((time -. start) *. t.run_rate.(i))
  end
  else begin
    if time < start then
      add t ~job:id ~machine:i ~at:start Violation.Segment_bounds "reversed segment [%g,%g]" start
        time;
    None
  end

let start t ~id ~machine:i ~time ~rate =
  match in_flight t id ~what:"start" ~at:time with
  | None -> ()
  | Some js ->
      let release = js.job.Job.release in
      if not (rate > 0. && Float.is_finite rate) then
        add t ~job:id ~machine:i ~at:time Violation.Segment_bounds
          "non-positive or non-finite speed %g" rate;
      if time < release then
        add t ~job:id ~machine:i ~at:time Violation.Release_respect
          "execution starts at %g before release %g" time release;
      if js.on >= 0 then
        add t ~job:id ~machine:i ~at:time Violation.Machine_overlap
          "starts on machine %d while running on machine %d" i js.on;
      if t.run_job.(i) >= 0 then
        add t ~job:id ~machine:i ~at:time Violation.Machine_overlap
          "starts at %g while job %d runs on the machine" time t.run_job.(i)
      else if t.last_stop.(i) > time then
        add t ~job:id ~machine:i ~at:time Violation.Machine_overlap
          "segment of job %d [%g,%g] overlaps job %d starting at %g" t.last_job.(i)
          t.last_start.(i) t.last_stop.(i) id time;
      if js.on < 0 then begin
        js.on <- i;
        t.run_job.(i) <- id;
        t.run_start.(i) <- time;
        t.run_rate.(i) <- rate
      end

let settle t id = t.jobs <- IM.remove id t.jobs

let complete t ~id ~machine:i ~time =
  match in_flight t id ~what:"complete" ~at:time with
  | None -> ()
  | Some js ->
      settle t id;
      if js.on < 0 then
        add t ~job:id ~at:time Violation.Outcome_consistency "completed but laid no segment"
      else begin
        let on = js.on in
        if on <> i then
          add t ~job:id ~machine:on Violation.Outcome_consistency
            "final segment on machine %d but the complete row names machine %d" on i;
        let size = Job.size js.job on in
        (match stop_segment t js ~time ~always:true with
        | None -> ()
        | Some volume ->
            if not (vol_close volume size) then
              add t ~job:id ~machine:on Violation.Outcome_consistency
                "processed volume %g but size is %g" volume size);
        if js.segments > 1 && not t.allow_restarts then
          add t ~job:id Violation.Non_preemption
            "completed job split across %d segments (preempted?)" js.segments
      end

(* A partial segment closed by a reject or restart must have done strictly
   less than the job's size on its machine. *)
let check_partial t js ~machine ~volume ~what =
  let size = Job.size js.job machine in
  if volume >= size -. 1e-9 then
    add t ~job:js.job.Job.id ~machine Violation.Outcome_consistency
      "%s after processing its full size %g" what size

let reject t ~id ~time ~was_running =
  match in_flight t id ~what:"reject" ~at:time with
  | None -> ()
  | Some js ->
      settle t id;
      if time < js.job.Job.release then
        add t ~job:id ~at:time Violation.Outcome_consistency "rejected at %g before release %g" time
          js.job.Job.release;
      (if js.on >= 0 then
         let on = js.on in
         match stop_segment t js ~time ~always:false with
         | None -> ()
         | Some volume -> check_partial t js ~machine:on ~volume ~what:"rejected");
      match js.segments with
      | 0 ->
          if was_running then
            add t ~job:id ~at:time Violation.Outcome_consistency
              "rejected mid-run but laid no segment"
      | 1 ->
          if not (was_running || t.allow_restarts) then
            add t ~job:id Violation.Outcome_consistency
              "laid a segment but the rejection records was_running = false"
      | k ->
          if not t.allow_restarts then
            add t ~job:id Violation.Exactly_once "rejected job has %d segments" k

let restart t ~id ~time =
  match in_flight t id ~what:"restart" ~at:time with
  | None -> ()
  | Some js ->
      if js.on < 0 then
        add t ~job:id ~at:time Violation.Outcome_consistency "restarted but not running"
      else begin
        let on = js.on in
        match stop_segment t js ~time ~always:false with
        | None -> ()
        | Some volume -> check_partial t js ~machine:on ~volume ~what:"restarted"
      end

let rows t rc ~newest =
  let len = Rec.length rc in
  for k = len - newest to len - 1 do
    let id = Rec.job rc k and i = Rec.machine rc k and time = Rec.time rc k in
    if i < 0 || i >= t.m then
      add t ~job:id ~at:time Violation.Segment_bounds "%s row names unknown machine %d"
        (Rec.kind_to_string (Rec.kind rc k)) i
    else
      match Rec.kind rc k with
      | Rec.Dispatch -> ignore (in_flight t id ~what:"dispatch" ~at:time)
      | Rec.Start -> start t ~id ~machine:i ~time ~rate:(Rec.value rc k)
      | Rec.Complete -> complete t ~id ~machine:i ~time
      | Rec.Reject -> reject t ~id ~time ~was_running:(Rec.flag rc k <> 0)
      | Rec.Restart -> restart t ~id ~time
  done

let close t =
  for i = 0 to t.m - 1 do
    if t.run_job.(i) >= 0 then
      add t ~job:t.run_job.(i) ~machine:i Violation.Exactly_once "still running at close"
  done;
  IM.iter
    (fun id _ -> add t ~job:id Violation.Exactly_once "fed but never completed or rejected")
    t.jobs;
  t.jobs <- IM.empty

let violations t = List.rev t.found
