module Tbl = Hashtbl.Make (Int)

type mode = { allow_parallel : bool; allow_restarts : bool; check_deadlines : bool }

let mode ?(allow_parallel = false) ?(allow_restarts = false) ?(check_deadlines = true) () =
  { allow_parallel; allow_restarts; check_deadlines }

(* The job's last laid segment (unboxed: an all-float record). *)
type last = { mutable l_start : float; mutable l_stop : float; mutable l_volume : float }

(* A job in flight: fed, not yet settled. *)
type job_state = {
  job : Job.t;
  mutable segments : int;  (** segments laid so far *)
  mutable on : int;  (** machine of the last segment *)
  mutable at : int;  (** index of its id in [flight] *)
  last : last;
}

type t = {
  mode : mode;
  m : int;
  (* The jobs in flight: their states by id, and their ids packed into
     [flight.(0 .. live-1)] (a settled id's cell takes the last one), so
     [close] can list them without iterating the table, whose order
     depends on hashing. *)
  jobs : job_state Tbl.t;
  mutable flight : int array;
  mutable live : int;
  (* Per machine, the laid segment that stops latest, for the overlap
     check: its job (-1 before any), start and stop. *)
  last_job : int array;
  last_start : float array;
  last_stop : float array;
  mutable found : Violation.t list;  (** newest first *)
}

(* Processed volume against size: simulation arithmetic is a handful of
   float operations per segment, so 1e-6 relative slack is ample. *)
let vol_close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max a b)

(* A segment that processed this much did its full size: an aborted or
   rejected attempt must stay below it. *)
let full_size volume size = volume >= size -. 1e-9

let create ?(mode = mode ()) ~machines () =
  if machines < 1 then invalid_arg "Validator.create: machines must be >= 1";
  {
    mode;
    m = machines;
    jobs = Tbl.create 16;
    flight = Array.make 16 0;
    live = 0;
    last_job = Array.make machines (-1);
    last_start = Array.make machines 0.;
    last_stop = Array.make machines neg_infinity;
    found = [];
  }

let report t ?job ?machine ?at check fmt =
  Printf.ksprintf (fun d -> t.found <- Violation.make ?job ?machine ?at check d :: t.found) fmt

let feed t (j : Job.t) =
  let id = j.Job.id in
  if Tbl.mem t.jobs id then
    report t ~job:id Violation.Exactly_once "fed again while still in flight"
  else begin
    if t.live = Array.length t.flight then begin
      let bigger = Array.make (2 * t.live) 0 in
      Array.blit t.flight 0 bigger 0 t.live;
      t.flight <- bigger
    end;
    t.flight.(t.live) <- id;
    Tbl.replace t.jobs id
      {
        job = j;
        segments = 0;
        on = -1;
        at = t.live;
        last = { l_start = 0.; l_stop = 0.; l_volume = 0. };
      };
    t.live <- t.live + 1
  end

let in_flight t id = Tbl.mem t.jobs id

let find t id ~what ~at =
  let js = Tbl.find_opt t.jobs id in
  if Option.is_none js then
    report t ~job:id ~at Violation.Exactly_once "%s of a job not in flight (settled or never fed)"
      what;
  js

let lay t ~job:id ~machine:i ~start ~stop ~rate =
  if not (Time.lt start stop) then
    report t ~job:id ~machine:i ~at:start Violation.Segment_bounds "empty or reversed segment [%g,%g]"
      start stop;
  if not (rate > 0. && Float.is_finite rate) then
    report t ~job:id ~machine:i ~at:start Violation.Segment_bounds
      "non-positive or non-finite speed %g" rate;
  let js = find t id ~what:"segment" ~at:start in
  if i < 0 || i >= t.m then
    report t ~job:id ~at:start Violation.Segment_bounds "segment lies on unknown machine %d" i
  else
    match js with
    | None -> ()
    | Some js ->
        let j = js.job in
        if Time.lt start j.Job.release then
          report t ~job:id ~machine:i ~at:start Violation.Release_respect
            "execution starts at %g before release %g" start j.Job.release;
        if not t.mode.allow_parallel then begin
          if Time.gt t.last_stop.(i) start then
            report t ~job:id ~machine:i ~at:start Violation.Machine_overlap
              "segment of job %d [%g,%g] overlaps job %d starting at %g" t.last_job.(i)
              t.last_start.(i) t.last_stop.(i) id start;
          if stop > t.last_stop.(i) then begin
            t.last_job.(i) <- id;
            t.last_start.(i) <- start;
            t.last_stop.(i) <- stop
          end
        end;
        let l = js.last in
        if js.segments > 0 then begin
          (* The job's previous segment was an aborted attempt. *)
          if full_size l.l_volume (Job.size j js.on) then
            report t ~job:id ~machine:js.on Violation.Outcome_consistency
              "aborted attempt processed its full size %g" (Job.size j js.on);
          if Time.gt l.l_stop start then
            report t ~job:id ~at:l.l_stop Violation.Outcome_consistency
              "aborted attempt [%g,%g] overlaps the next run starting at %g" l.l_start l.l_stop
              start
        end;
        js.segments <- js.segments + 1;
        js.on <- i;
        l.l_start <- start;
        l.l_stop <- stop;
        l.l_volume <- (stop -. start) *. rate

let settle t ~job:id ~what ~at =
  match find t id ~what ~at with
  | None -> None
  | Some settled as js ->
      Tbl.remove t.jobs id;
      t.live <- t.live - 1;
      let moved = t.flight.(t.live) in
      if not (Int.equal moved id) then begin
        t.flight.(settled.at) <- moved;
        (Tbl.find t.jobs moved).at <- settled.at
      end;
      js

let complete t ~job:id ~machine ~start ~finish =
  match settle t ~job:id ~what:"completion" ~at:finish with
  | None -> ()
  | Some js when js.segments = 0 ->
      report t ~job:id ~at:finish Violation.Exactly_once "completed but laid no segment"
  | Some js ->
      let j = js.job and l = js.last and on = js.on in
      if on <> machine then
        report t ~job:id ~machine:on Violation.Outcome_consistency
          "final segment on machine %d but outcome records machine %d" on machine;
      if not (Time.equal l.l_start start && Time.equal l.l_stop finish) then
        report t ~job:id ~machine:on ~at:l.l_start Violation.Outcome_consistency
          "final segment [%g,%g] mismatches outcome [%g,%g]" l.l_start l.l_stop start finish;
      let size = Job.size j on in
      if not (vol_close l.l_volume size) then
        report t ~job:id ~machine:on Violation.Outcome_consistency
          "processed volume %g but size is %g" l.l_volume size;
      (if t.mode.check_deadlines then
         match j.Job.deadline with
         | Some d when Time.gt finish d ->
             report t ~job:id ~at:finish Violation.Deadline "finishes at %g after deadline %g"
               finish d
         | _ -> ());
      if js.segments > 1 && not t.mode.allow_restarts then
        report t ~job:id Violation.Non_preemption
          "completed job split across %d segments (preempted?)" js.segments

let reject t ~job:id ~time ~was_running =
  match settle t ~job:id ~what:"rejection" ~at:time with
  | None -> ()
  | Some js -> (
      let j = js.job and l = js.last in
      if Time.lt time j.Job.release then
        report t ~job:id ~at:time Violation.Outcome_consistency "rejected at %g before release %g"
          time j.Job.release;
      if js.segments > 0 then begin
        if Time.gt l.l_stop time then
          report t ~job:id ~at:l.l_stop Violation.Outcome_consistency
            "partial segment ends at %g after rejection at %g" l.l_stop time;
        if full_size l.l_volume (Job.size j js.on) then
          report t ~job:id ~machine:js.on Violation.Outcome_consistency
            "rejected after processing its full size %g" (Job.size j js.on)
      end;
      match js.segments with
      | 0 ->
          if was_running then
            report t ~job:id ~at:time Violation.Outcome_consistency
              "rejected mid-run but laid no segment"
      | 1 ->
          if not (was_running || t.mode.allow_restarts) then
            report t ~job:id Violation.Outcome_consistency
              "laid a segment but the rejection records was_running = false"
      | k ->
          if not t.mode.allow_restarts then
            report t ~job:id Violation.Exactly_once "rejected job has %d segments" k)

let close t =
  let left = Array.sub t.flight 0 t.live in
  Array.sort Int.compare left;
  Array.iter
    (fun id -> report t ~job:id Violation.Exactly_once "fed but never completed or rejected")
    left;
  Tbl.reset t.jobs;
  t.live <- 0

let violations t = List.rev t.found
