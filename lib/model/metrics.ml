type flow = {
  total : float;
  weighted : float;
  total_with_rejected : float;
  weighted_with_rejected : float;
  max_flow : float;
  mean_flow : float;
  max_stretch : float;
}

let flow (s : Schedule.t) =
  let total = ref 0. and weighted = ref 0. in
  let rej_total = ref 0. and rej_weighted = ref 0. in
  let max_flow = ref 0. and max_stretch = ref 0. in
  let completed = ref 0 in
  Array.iter
    (fun (j : Job.t) ->
      let f = Outcome.flow_time j (Schedule.outcome s j.id) in
      match Schedule.outcome s j.id with
      | Outcome.Completed _ ->
          incr completed;
          total := !total +. f;
          weighted := !weighted +. (j.weight *. f);
          if f > !max_flow then max_flow := f;
          let stretch = f /. Job.min_size j in
          if stretch > !max_stretch then max_stretch := stretch
      | Outcome.Rejected _ ->
          rej_total := !rej_total +. f;
          rej_weighted := !rej_weighted +. (j.weight *. f))
    (Instance.jobs_by_release s.instance);
  {
    total = !total;
    weighted = !weighted;
    total_with_rejected = !total +. !rej_total;
    weighted_with_rejected = !weighted +. !rej_weighted;
    max_flow = !max_flow;
    mean_flow = (if !completed = 0 then 0. else !total /. float_of_int !completed);
    max_stretch = !max_stretch;
  }

let fractional_flow ?(include_rejected = false) (s : Schedule.t) =
  (* Per job: waiting intervals count fully (remaining fraction 1); an
     execution piece [a, b) at rate v on a job of size p contributes
     int (q(t)/p) dt with q falling linearly from q0: (b-a) q0/p - v (b-a)^2 / (2p). *)
  let total = ref 0. in
  Array.iter
    (fun (j : Job.t) ->
      let outcome = Schedule.outcome s j.id in
      let keep =
        match outcome with Outcome.Completed _ -> true | Outcome.Rejected _ -> include_rejected
      in
      if keep then begin
        let segs =
          List.filter (fun (g : Schedule.segment) -> g.job = j.id) s.segments
          |> List.sort (fun (a : Schedule.segment) b -> Float.compare a.start b.start)
        in
        let end_time = Outcome.end_time outcome in
        (* Walk waiting and execution pieces in order.  With restarts the
           remaining volume resets, so recompute q0 per segment from the
           machine size minus volume done in THIS attempt only — the
           paper's fractional flow is defined for non-preemptive runs, and
           for restarts we take the remaining-of-current-attempt reading. *)
        let clock = ref j.release in
        List.iter
          (fun (g : Schedule.segment) ->
            let p = Job.size j g.machine in
            if g.start > !clock then total := !total +. (g.start -. !clock);
            let d = g.stop -. g.start in
            total := !total +. (d -. (g.speed *. d *. d /. (2. *. p)));
            clock := g.stop)
          segs;
        if end_time > !clock then total := !total +. (end_time -. !clock)
      end)
    (Instance.jobs_by_release s.instance);
  !total

let flow_values ?(include_rejected = false) (s : Schedule.t) =
  let acc = ref [] in
  Array.iter
    (fun (j : Job.t) ->
      let outcome = Schedule.outcome s j.id in
      let keep =
        match outcome with Outcome.Completed _ -> true | Outcome.Rejected _ -> include_rejected
      in
      if keep then acc := Outcome.flow_time j outcome :: !acc)
    (Instance.jobs_by_release s.instance);
  Array.of_list (List.rev !acc)

let makespan (s : Schedule.t) =
  List.fold_left (fun acc (seg : Schedule.segment) -> Float.max acc seg.stop) 0. s.segments

(* Sweep the segment endpoints of one machine and integrate P(aggregate
   speed) over each elementary interval: O(k log k) via a sorted event list
   of speed deltas. *)
let energy_of_machine (s : Schedule.t) i segs =
  let alpha = (Instance.machine s.instance i).Machine.alpha in
  match segs with
  | [] -> 0.
  | _ ->
      let events =
        List.concat_map
          (fun (g : Schedule.segment) -> [ (g.start, g.speed); (g.stop, -.g.speed) ])
          segs
        |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      let rec sweep acc speed = function
        | (t0, d0) :: (((t1, _) :: _) as rest) ->
            let speed = Float.max 0. (speed +. d0) in
            let acc =
              if t1 > t0 && speed > 0. then acc +. ((t1 -. t0) *. (speed ** alpha)) else acc
            in
            sweep acc speed rest
        | _ -> acc
      in
      sweep 0. 0. events

let energy (s : Schedule.t) =
  let total = ref 0. in
  Array.iteri
    (fun i segs -> total := !total +. energy_of_machine s i segs)
    (Schedule.segments_by_machine s);
  !total

type rejection = {
  count : int;
  fraction : float;
  weight : float;
  weight_fraction : float;
  mid_run : int;
}

let rejection (s : Schedule.t) =
  let count = ref 0 and weight = ref 0. and mid_run = ref 0 in
  Array.iter
    (fun (j : Job.t) ->
      match Schedule.outcome s j.id with
      | Outcome.Rejected r ->
          incr count;
          weight := !weight +. j.weight;
          if r.was_running then incr mid_run
      | Outcome.Completed _ -> ())
    (Instance.jobs_by_release s.instance);
  let n = Instance.n s.instance in
  let w = Instance.total_weight s.instance in
  {
    count = !count;
    fraction = (if n = 0 then 0. else float_of_int !count /. float_of_int n);
    weight = !weight;
    weight_fraction = (if w = 0. then 0. else !weight /. w);
    mid_run = !mid_run;
  }

type live = { flow : flow; energy : float; rejection : rejection; makespan : Time.t }

let busy_time (s : Schedule.t) i =
  let segs = Schedule.segments_of_machine s i in
  (* Merge sorted intervals. *)
  let rec merge acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (g : Schedule.segment) :: rest -> begin
        match cur with
        | None -> merge acc (Some (g.start, g.stop)) rest
        | Some (a, b) ->
            if g.start <= b then merge acc (Some (a, Float.max b g.stop)) rest
            else merge (acc +. (b -. a)) (Some (g.start, g.stop)) rest
      end
  in
  merge 0. None segs

