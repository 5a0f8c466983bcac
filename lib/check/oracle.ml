open Sched_model

type mode = {
  allow_parallel : bool;
  allow_restarts : bool;
  check_deadlines : bool option;
}

let strict = { allow_parallel = false; allow_restarts = false; check_deadlines = None }

let mode ?(allow_parallel = false) ?(allow_restarts = false) ?check_deadlines () =
  { allow_parallel; allow_restarts; check_deadlines }

type budget = Count_fraction of float | Weight_fraction of float

(* Same relative slack as the model-layer validator: simulation arithmetic
   is a handful of float operations per segment. *)
let vol_close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max a b)

let seg_volume (sg : Schedule.segment) = (sg.Schedule.stop -. sg.Schedule.start) *. sg.Schedule.speed

let cmp_seg_time (a : Schedule.segment) (b : Schedule.segment) =
  match Float.compare a.Schedule.start b.Schedule.start with
  | 0 -> (
      match Float.compare a.Schedule.stop b.Schedule.stop with
      | 0 -> Int.compare a.Schedule.job b.Schedule.job
      | c -> c)
  | c -> c

let structural ?(mode = strict) (s : Schedule.t) =
  let inst = s.Schedule.instance in
  let n = Instance.n inst and m = Instance.m inst in
  let check_deadlines =
    match mode.check_deadlines with Some b -> b | None -> Instance.has_deadlines inst
  in
  let errs = ref [] in
  let add ?job ?machine ?at check fmt =
    Printf.ksprintf (fun d -> errs := Violation.make ?job ?machine ?at check d :: !errs) fmt
  in
  (* Per-segment sanity. *)
  List.iter
    (fun (sg : Schedule.segment) ->
      if sg.Schedule.machine < 0 || sg.Schedule.machine >= m then
        add ~job:sg.Schedule.job ~at:sg.Schedule.start Violation.Segment_bounds
          "segment lies on unknown machine %d" sg.Schedule.machine;
      if not (Time.lt sg.Schedule.start sg.Schedule.stop) then
        add ~job:sg.Schedule.job ~machine:sg.Schedule.machine ~at:sg.Schedule.start
          Violation.Segment_bounds "empty or reversed segment [%g,%g]" sg.Schedule.start
          sg.Schedule.stop;
      if not (sg.Schedule.speed > 0. && Float.is_finite sg.Schedule.speed) then
        add ~job:sg.Schedule.job ~machine:sg.Schedule.machine ~at:sg.Schedule.start
          Violation.Segment_bounds "non-positive or non-finite speed %g" sg.Schedule.speed;
      if sg.Schedule.job < 0 || sg.Schedule.job >= n then
        add ~machine:sg.Schedule.machine ~at:sg.Schedule.start Violation.Exactly_once
          "segment references unknown job %d" sg.Schedule.job
      else begin
        let j = Instance.job inst sg.Schedule.job in
        if Time.lt sg.Schedule.start j.Job.release then
          add ~job:sg.Schedule.job ~machine:sg.Schedule.machine ~at:sg.Schedule.start
            Violation.Release_respect "execution starts at %g before release %g" sg.Schedule.start
            j.Job.release
      end)
    s.Schedule.segments;
  (* Per-machine interval disjointness. *)
  if not mode.allow_parallel then begin
    let per = Array.make m [] in
    List.iter
      (fun (sg : Schedule.segment) ->
        if sg.Schedule.machine >= 0 && sg.Schedule.machine < m then
          per.(sg.Schedule.machine) <- sg :: per.(sg.Schedule.machine))
      s.Schedule.segments;
    Array.iteri
      (fun i segs ->
        let rec go = function
          | (a : Schedule.segment) :: ((b : Schedule.segment) :: _ as rest) ->
              if Time.gt a.Schedule.stop b.Schedule.start then
                add ~job:b.Schedule.job ~machine:i ~at:b.Schedule.start Violation.Machine_overlap
                  "segment of job %d [%g,%g] overlaps job %d starting at %g" a.Schedule.job
                  a.Schedule.start a.Schedule.stop b.Schedule.job b.Schedule.start;
              go rest
          | _ -> ()
        in
        go (List.sort cmp_seg_time segs))
      per
  end;
  (* Per-job outcome/segment consistency. *)
  let by_job = Array.make n [] in
  List.iter
    (fun (sg : Schedule.segment) ->
      if sg.Schedule.job >= 0 && sg.Schedule.job < n then
        by_job.(sg.Schedule.job) <- sg :: by_job.(sg.Schedule.job))
    s.Schedule.segments;
  for id = 0 to n - 1 do
    let j = Instance.job inst id in
    let segs = List.sort cmp_seg_time by_job.(id) in
    match Schedule.outcome s id with
    | Outcome.Completed c -> begin
        match List.rev segs with
        | [] -> add ~job:id Violation.Exactly_once "completed but laid no segment"
        | final :: earlier_rev ->
            let earlier = List.rev earlier_rev in
            if final.Schedule.machine <> c.Outcome.machine then
              add ~job:id ~machine:final.Schedule.machine Violation.Outcome_consistency
                "final segment on machine %d but outcome records machine %d"
                final.Schedule.machine c.Outcome.machine;
            if
              not
                (Time.equal final.Schedule.start c.Outcome.start
                && Time.equal final.Schedule.stop c.Outcome.finish)
            then
              add ~job:id ~machine:final.Schedule.machine ~at:final.Schedule.start
                Violation.Outcome_consistency "final segment [%g,%g] mismatches outcome [%g,%g]"
                final.Schedule.start final.Schedule.stop c.Outcome.start c.Outcome.finish;
            if final.Schedule.machine >= 0 && final.Schedule.machine < m then begin
              let size = Job.size j final.Schedule.machine in
              if not (vol_close (seg_volume final) size) then
                add ~job:id ~machine:final.Schedule.machine Violation.Outcome_consistency
                  "processed volume %g but size is %g" (seg_volume final) size
            end;
            if check_deadlines then begin
              match j.Job.deadline with
              | Some d when Time.gt c.Outcome.finish d ->
                  add ~job:id ~at:c.Outcome.finish Violation.Deadline
                    "finishes at %g after deadline %g" c.Outcome.finish d
              | _ -> ()
            end;
            if earlier <> [] && not mode.allow_restarts then
              add ~job:id Violation.Non_preemption
                "completed job split across %d segments (preempted?)" (List.length segs)
            else
              List.iter
                (fun (sg : Schedule.segment) ->
                  if
                    sg.Schedule.machine >= 0 && sg.Schedule.machine < m
                    && seg_volume sg >= Job.size j sg.Schedule.machine -. 1e-9
                  then
                    add ~job:id ~machine:sg.Schedule.machine Violation.Outcome_consistency
                      "aborted attempt processed its full size %g" (seg_volume sg);
                  if Time.gt sg.Schedule.stop c.Outcome.start then
                    add ~job:id ~at:sg.Schedule.stop Violation.Outcome_consistency
                      "aborted attempt [%g,%g] overlaps the final run starting at %g"
                      sg.Schedule.start sg.Schedule.stop c.Outcome.start)
                earlier
      end
    | Outcome.Rejected r -> begin
        if Time.lt r.Outcome.time j.Job.release then
          add ~job:id ~at:r.Outcome.time Violation.Outcome_consistency
            "rejected at %g before release %g" r.Outcome.time j.Job.release;
        List.iter
          (fun (sg : Schedule.segment) ->
            if Time.gt sg.Schedule.stop r.Outcome.time then
              add ~job:id ~at:sg.Schedule.stop Violation.Outcome_consistency
                "partial segment ends at %g after rejection at %g" sg.Schedule.stop r.Outcome.time;
            if
              sg.Schedule.machine >= 0 && sg.Schedule.machine < m
              && seg_volume sg >= Job.size j sg.Schedule.machine -. 1e-9
            then
              add ~job:id ~machine:sg.Schedule.machine Violation.Outcome_consistency
                "rejected after processing its full size")
          segs;
        match segs with
        | [] ->
            if r.Outcome.was_running then
              add ~job:id ~at:r.Outcome.time Violation.Outcome_consistency
                "rejected mid-run but laid no segment"
        | [ _ ] ->
            if not (r.Outcome.was_running || mode.allow_restarts) then
              add ~job:id Violation.Outcome_consistency
                "laid a segment but the rejection records was_running = false"
        | _ :: _ :: _ ->
            if not mode.allow_restarts then
              add ~job:id Violation.Exactly_once "rejected job has %d segments" (List.length segs)
      end
  done;
  List.sort_uniq Violation.compare !errs

let budget_check budget (s : Schedule.t) =
  let r = Metrics.rejection s in
  let fail limit actual what =
    [
      Violation.make Violation.Rejection_budget
        (Printf.sprintf "%s %.9g exceeds budget %g" what actual limit);
    ]
  in
  match budget with
  | Count_fraction f -> if r.Metrics.fraction <= f +. 1e-9 then [] else fail f r.Metrics.fraction "rejected count fraction"
  | Weight_fraction f ->
      if r.Metrics.weight_fraction <= f +. 1e-9 then []
      else fail f r.Metrics.weight_fraction "rejected weight fraction"

let reconcile ?(tol = 1e-9) (live : Metrics.live) (s : Schedule.t) =
  let errs = ref [] in
  let close a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  let num field claimed actual =
    if not (close claimed actual) then
      errs :=
        Violation.make Violation.Metric_drift
          (Printf.sprintf "%s: incremental %.17g vs recomputed %.17g (tol %g)" field claimed
             actual tol)
        :: !errs
  in
  let int_field field claimed actual =
    if claimed <> actual then
      errs :=
        Violation.make Violation.Metric_drift
          (Printf.sprintf "%s: incremental %d vs recomputed %d" field claimed actual)
        :: !errs
  in
  let f = Metrics.flow s and lf = live.Metrics.flow in
  num "flow.total" lf.Metrics.total f.Metrics.total;
  num "flow.weighted" lf.Metrics.weighted f.Metrics.weighted;
  num "flow.total_with_rejected" lf.Metrics.total_with_rejected f.Metrics.total_with_rejected;
  num "flow.weighted_with_rejected" lf.Metrics.weighted_with_rejected
    f.Metrics.weighted_with_rejected;
  num "flow.max_flow" lf.Metrics.max_flow f.Metrics.max_flow;
  num "flow.mean_flow" lf.Metrics.mean_flow f.Metrics.mean_flow;
  num "flow.max_stretch" lf.Metrics.max_stretch f.Metrics.max_stretch;
  num "energy" live.Metrics.energy (Metrics.energy s);
  num "makespan" live.Metrics.makespan (Metrics.makespan s);
  let r = Metrics.rejection s and lr = live.Metrics.rejection in
  int_field "rejection.count" lr.Metrics.count r.Metrics.count;
  int_field "rejection.mid_run" lr.Metrics.mid_run r.Metrics.mid_run;
  num "rejection.fraction" lr.Metrics.fraction r.Metrics.fraction;
  num "rejection.weight" lr.Metrics.weight r.Metrics.weight;
  num "rejection.weight_fraction" lr.Metrics.weight_fraction r.Metrics.weight_fraction;
  List.sort Violation.compare !errs

let check ?mode:(md = strict) ?budget ?live ?tol s =
  let vs = structural ~mode:md s in
  let vs = match budget with None -> vs | Some b -> vs @ budget_check b s in
  match live with None -> vs | Some lm -> vs @ reconcile ?tol lm s

let report vs = Format.asprintf "%a" Violation.pp_list vs
