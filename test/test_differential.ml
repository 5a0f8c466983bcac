(* Differential tests: the indexed-queue policies against their scan-based
   seed mirrors, and the driver's incremental metrics against the post-hoc
   [Metrics] passes.

   Instances come from [Test_util.random_instance], whose dyadic numerics
   make every sum exact — identical decisions imply byte-identical
   schedules, so the comparison is exact string equality on the serialized
   dump, not a tolerance. *)

open Sched_model
open Sched_sim
module PR = Sched_experiments.Policy_registry

(* 100 instances spanning 1..4 machines, 5..40 jobs, weighted and
   restricted-eligibility variants. *)
let instances =
  List.init 100 (fun k ->
      let n = 5 + (k mod 8 * 5) in
      let m = 1 + (k mod 4) in
      Test_util.random_instance ~weighted:(k mod 2 = 1) ~restricted:(k mod 3 = 0)
        ~seed:(1000 + k) ~n ~m ())

let test_schedules_match_reference () =
  List.iter
    (fun (e : PR.entry) ->
      match e.reference with
      | None -> ()
      | Some ref_run ->
          List.iter
            (fun inst ->
              let opt = Serialize.schedule_to_string (fst (e.run inst)) in
              let refd = Serialize.schedule_to_string (ref_run inst) in
              if opt <> refd then
                Alcotest.failf "policy %s diverges from its seed reference on %s" e.name
                  inst.Instance.name)
            instances)
    PR.all

let check_float what name ~expected ~actual =
  (* Incremental and post-hoc metrics accumulate in different orders; allow
     rounding, nothing more. *)
  let tol = 1e-9 *. (1. +. Float.abs expected) in
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: live %s = %.17g, recomputed = %.17g" name what actual expected

let test_live_metrics_match_recompute () =
  List.iter
    (fun (e : PR.entry) ->
      List.iteri
        (fun k inst ->
          if k mod 3 = 0 then begin
            let s, live = e.run inst in
            let f = Metrics.flow s in
            let name = Printf.sprintf "%s on %s" e.name inst.Instance.name in
            check_float "flow.total" name ~expected:f.Metrics.total
              ~actual:live.Driver.flow.Metrics.total;
            check_float "flow.weighted" name ~expected:f.Metrics.weighted
              ~actual:live.Driver.flow.Metrics.weighted;
            check_float "flow.total_with_rejected" name
              ~expected:f.Metrics.total_with_rejected
              ~actual:live.Driver.flow.Metrics.total_with_rejected;
            check_float "flow.weighted_with_rejected" name
              ~expected:f.Metrics.weighted_with_rejected
              ~actual:live.Driver.flow.Metrics.weighted_with_rejected;
            check_float "flow.max_flow" name ~expected:f.Metrics.max_flow
              ~actual:live.Driver.flow.Metrics.max_flow;
            check_float "flow.mean_flow" name ~expected:f.Metrics.mean_flow
              ~actual:live.Driver.flow.Metrics.mean_flow;
            check_float "flow.max_stretch" name ~expected:f.Metrics.max_stretch
              ~actual:live.Driver.flow.Metrics.max_stretch;
            check_float "energy" name ~expected:(Metrics.energy s)
              ~actual:live.Driver.energy;
            check_float "makespan" name ~expected:(Metrics.makespan s)
              ~actual:live.Driver.makespan;
            let r = Metrics.rejection s in
            if r.Metrics.count <> live.Driver.rejection.Metrics.count then
              Alcotest.failf "%s: rejection count %d <> %d" name
                live.Driver.rejection.Metrics.count r.Metrics.count;
            if r.Metrics.mid_run <> live.Driver.rejection.Metrics.mid_run then
              Alcotest.failf "%s: mid_run %d <> %d" name
                live.Driver.rejection.Metrics.mid_run r.Metrics.mid_run;
            check_float "rejection.weight" name ~expected:r.Metrics.weight
              ~actual:live.Driver.rejection.Metrics.weight;
            check_float "rejection.fraction" name ~expected:r.Metrics.fraction
              ~actual:live.Driver.rejection.Metrics.fraction;
            check_float "rejection.weight_fraction" name
              ~expected:r.Metrics.weight_fraction
              ~actual:live.Driver.rejection.Metrics.weight_fraction
          end)
        instances)
    PR.all

(* The view accessors must agree with scans of the materialized pending
   list at every decision point of a live run.  A probe policy wraps
   greedy-SPT and cross-checks on each select call. *)
let check_accessors view i =
  let pend = Driver.pending view i in
  let count = List.length pend in
  if Driver.pending_count view i <> count then Alcotest.failf "pending_count mismatch";
  let iterated = ref [] in
  Driver.pending_iter view i (fun j -> iterated := j :: !iterated);
  if List.rev !iterated <> pend then Alcotest.failf "pending_iter disagrees with pending";
  let work = List.fold_left (fun acc (l : Job.t) -> acc +. Job.size l i) 0. pend in
  if Driver.pending_work view i <> work then
    Alcotest.failf "pending_work %.17g <> scan %.17g" (Driver.pending_work view i) work;
  let weight = List.fold_left (fun acc (l : Job.t) -> acc +. l.Job.weight) 0. pend in
  if Driver.pending_weight view i <> weight then Alcotest.failf "pending_weight mismatch";
  let fold_best better =
    match pend with
    | [] -> None
    | first :: rest -> Some (List.fold_left (fun a l -> if better l a then l else a) first rest)
  in
  let ids = function None -> -1 | Some (j : Job.t) -> j.Job.id in
  let spt (a : Job.t) (b : Job.t) =
    let pa = Job.size a i and pb = Job.size b i in
    if pa <> pb then pa < pb
    else if a.release <> b.release then a.release < b.release
    else a.id < b.id
  in
  if ids (Driver.pending_shortest view i) <> ids (fold_best spt) then
    Alcotest.failf "pending_shortest mismatch";
  if ids (Driver.pending_longest view i) <> ids (fold_best (fun a b -> spt b a)) then
    Alcotest.failf "pending_longest mismatch";
  let dense (a : Job.t) (b : Job.t) =
    let da = a.weight /. Job.size a i and db = b.weight /. Job.size b i in
    if da <> db then da > db
    else if a.release <> b.release then a.release < b.release
    else a.id < b.id
  in
  if ids (Driver.pending_densest view i) <> ids (fold_best dense) then
    Alcotest.failf "pending_densest mismatch";
  let big_tie_id (a : Job.t) (b : Job.t) =
    let pa = Job.size a i and pb = Job.size b i in
    if pa <> pb then pa > pb else a.id > b.id
  in
  if ids (Driver.pending_longest_tie_id view i) <> ids (fold_best big_tie_id) then
    Alcotest.failf "pending_longest_tie_id mismatch";
  let earlier (a : Job.t) (b : Job.t) =
    if a.release <> b.release then a.release < b.release else a.id < b.id
  in
  if ids (Driver.pending_earliest view i) <> ids (fold_best earlier) then
    Alcotest.failf "pending_earliest mismatch"

let probe_policy =
  let base = Sched_baselines.Greedy_dispatch.spt in
  {
    base with
    Driver.name = "probe-spt";
    select =
      (fun st view i ->
        check_accessors view i;
        base.Driver.select st view i);
  }

let test_accessors_agree_with_scans () =
  List.iteri
    (fun k inst -> if k mod 5 = 0 then ignore (Test_util.schedule_of probe_policy inst))
    instances

let suite =
  [
    Alcotest.test_case "optimized == seed reference (100 instances/policy)" `Quick
      test_schedules_match_reference;
    Alcotest.test_case "live metrics == post-hoc recompute" `Quick
      test_live_metrics_match_recompute;
    Alcotest.test_case "view accessors == pending scans" `Quick test_accessors_agree_with_scans;
  ]