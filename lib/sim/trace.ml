open Sched_model

type event =
  | Dispatch of { job : Job.id; machine : Machine.id }
  | Start of { job : Job.id; machine : Machine.id; speed : float }
  | Complete of { job : Job.id; machine : Machine.id }
  | Reject of { job : Job.id; machine : Machine.id; was_running : bool; remaining : float }
  | Restart of { job : Job.id; machine : Machine.id; wasted : float }

type entry = { time : Time.t; event : event }

(* A trace is a recorder ring held from its release mark on, so it grows
   rather than drop a row a reader has not taken.  The driver writes one
   row per event; trace/1 entries are decoded from the rows on read. *)
module Rec = Sched_obs.Recorder
module Ring = Sched_obs.Ring

type t = Rec.t

let create () =
  let t = Rec.create ~capacity:1024 () in
  Ring.hold t.Rec.ring 0;
  t

let recorder t = t
let length = Rec.total
let released t = Option.get (Ring.held t.Rec.ring)

let release t k = Ring.hold t.Rec.ring k
let unreleased t = length t - released t

let unread = Rec.compact

(* The cold encoder: a row of the driver's shape, provenance cells zero. *)
let record t time event =
  let s, value =
    match event with
    | Dispatch { job; machine } -> (Rec.reserve_dispatch t ~job ~machine ~cands:0 ~mask:0, 0.)
    | Start { job; machine; speed } -> (Rec.reserve_start t ~job ~machine, speed)
    | Complete { job; machine } -> (Rec.reserve_complete t ~job ~machine, 0.)
    | Reject { job; machine; was_running; remaining } ->
        (Rec.reserve_reject t ~job ~machine ~was_running ~rejected:0, remaining)
    | Restart { job; machine; wasted } -> (Rec.reserve_restart t ~job ~machine, wasted)
  in
  t.Rec.floats.(s + Rec.o_time) <- time;
  t.Rec.floats.(s + Rec.o_value) <- value

(* Trace/1 is a field projection of the row: [value] carries the speed,
   remaining volume or wasted work, and [time] is the same clock. *)
let of_row ({ time; kind; job; machine; flag; value; _ } : Rec.entry) =
  let event =
    match kind with
    | Rec.Dispatch -> Dispatch { job; machine }
    | Rec.Start -> Start { job; machine; speed = value }
    | Rec.Complete -> Complete { job; machine }
    | Rec.Reject -> Reject { job; machine; was_running = flag <> 0; remaining = value }
    | Rec.Restart -> Restart { job; machine; wasted = value }
  in
  { time; event }

let since t k =
  if k < released t then invalid_arg "Trace.since: those entries were released";
  List.map of_row (Rec.entries ~last:(length t - k) t)

let events t = since t (released t)

(* Shared step-function builder: [delta] maps an event to [Some (machine, +-1)]
   when it moves the tracked population, [None] otherwise. *)
let profile t ~machines ~delta =
  let profiles = Array.make machines [] in
  let counts = Array.make machines 0 in
  List.iter
    (fun { time; event } ->
      match delta event with
      | None -> ()
      | Some (i, d) ->
          counts.(i) <- counts.(i) + d;
          profiles.(i) <- (time, counts.(i)) :: profiles.(i))
    (events t);
  List.init machines (fun i -> (i, List.rev profiles.(i)))

let queue_profile t ~machines =
  profile t ~machines ~delta:(function
    | Dispatch { machine; _ } -> Some (machine, 1)
    | Complete { machine; _ } -> Some (machine, -1)
    | Reject { machine; _ } -> Some (machine, -1)
    | Start _ | Restart _ -> None)

let pending_profile t ~machines =
  profile t ~machines ~delta:(function
    | Dispatch { machine; _ } -> Some (machine, 1)
    | Start { machine; _ } -> Some (machine, -1)
    | Restart { machine; _ } -> Some (machine, 1)
    | Reject { machine; was_running = false; _ } -> Some (machine, -1)
    | Reject { was_running = true; _ } | Complete _ -> None)
