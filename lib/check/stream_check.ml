open Sched_model
module Rec = Sched_obs.Recorder

type t = {
  v : Validator.t;
  m : int;
  (* The segment open on each machine: its job (-1 when idle), start and
     rate. *)
  run_job : int array;
  run_start : float array;
  run_rate : float array;
}

let create ?mode ~machines () =
  if machines < 1 then invalid_arg "Stream_check.create: machines must be >= 1";
  {
    v = Validator.create ?mode ~machines ();
    m = machines;
    run_job = Array.make machines (-1);
    run_start = Array.make machines 0.;
    run_rate = Array.make machines 0.;
  }

let feed t j = Validator.feed t.v j

(* Closes the segment open on machine [i] at [time] and returns its start.
   The driver lays a completed job's segment whatever its length, so
   [~always] lays it; a reject or restart at the instant of the start
   lays none. *)
let stop_segment t ~id i ~time ~always =
  let start = t.run_start.(i) in
  t.run_job.(i) <- -1;
  if always || not (Time.equal start time) then
    Validator.lay t.v ~job:id ~machine:i ~start ~stop:time ~rate:t.run_rate.(i);
  start

let report t id time ?machine check fmt = Validator.report t.v ~job:id ?machine ~at:time check fmt

let row t rc k =
  let id = Rec.job rc k and i = Rec.machine rc k and time = Rec.time rc k in
  if i < 0 || i >= t.m then
    report t id time Violation.Segment_bounds "%s row names unknown machine %d"
      (Rec.kind_to_string (Rec.kind rc k)) i
  else
    let running = t.run_job.(i) = id in
    match Rec.kind rc k with
    | Rec.Dispatch ->
        if not (Validator.in_flight t.v id) then
          report t id time Violation.Exactly_once "dispatch row for a job not in flight"
    | Rec.Start ->
        if t.run_job.(i) >= 0 then
          report t id time ~machine:i Violation.Machine_overlap "starts at %g while job %d runs on the machine"
            time t.run_job.(i)
        else begin
          t.run_job.(i) <- id;
          t.run_start.(i) <- time;
          t.run_rate.(i) <- Rec.value rc k
        end
    | Rec.Complete ->
        let start =
          if running then stop_segment t ~id i ~time ~always:true
          else begin
            report t id time ~machine:i Violation.Outcome_consistency
              "complete row names machine %d, which is not running the job" i;
            time
          end
        in
        Validator.complete t.v ~job:id ~machine:i ~start ~finish:time
    | Rec.Reject ->
        if running then ignore (stop_segment t ~id i ~time ~always:false);
        Validator.reject t.v ~job:id ~time ~was_running:(Rec.flag rc k <> 0)
    | Rec.Restart ->
        if running then ignore (stop_segment t ~id i ~time ~always:false)
        else report t id time ~machine:i Violation.Outcome_consistency "restarted but not running"

let rows t rc ~newest =
  let len = Rec.length rc in
  for k = len - newest to len - 1 do
    row t rc k
  done

let close t =
  for i = 0 to t.m - 1 do
    if t.run_job.(i) >= 0 then
      Validator.report t.v ~job:t.run_job.(i) ~machine:i Violation.Exactly_once
        "still running at close"
  done;
  Validator.close t.v

let violations t = Validator.violations t.v
