open Sched_model

type budget = Count_fraction of float | Weight_fraction of float

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

let check ?mode ?budget ?live ?tol s =
  let vs = List.sort_uniq Violation.compare (Schedule.violations ?mode s) in
  let vs = match budget with None -> vs | Some b -> vs @ budget_check b s in
  match live with None -> vs | Some lm -> vs @ reconcile ?tol lm s

let report vs = Format.asprintf "%a" Violation.pp_list vs
