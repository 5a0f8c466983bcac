(* Oracle unit tests: hand-built invalid schedules must each trip the
   matching checker, clean ones must pass, the telemetry counters must
   round-trip, and the registry audit's restart relaxation must be
   needed exactly by the runs whose restarts waste work. *)

open Sched_model
module Oracle = Sched_check.Oracle
module Violation = Sched_check.Violation
module Check_obs = Sched_check.Check_obs

let seg job machine start stop speed = { Schedule.job; machine; start; stop; speed }

let completed machine start speed finish =
  Outcome.Completed { Outcome.machine; start; speed; finish }

let rejected ?assigned_to ?(was_running = false) time =
  Outcome.Rejected { Outcome.time; assigned_to; was_running }

(* Hand-build a schedule: finalize only demands outcome coverage, so tests
   can lay down arbitrarily broken segment lists. *)
let build inst segments outcomes =
  let b = Schedule.builder inst in
  List.iter (Schedule.add_segment b) segments;
  List.iter (fun (id, o) -> Schedule.set_outcome b id o) outcomes;
  Schedule.finalize b

let has kind vs = List.exists (fun v -> v.Violation.check = kind) vs

let check_has name kind vs =
  if not (has kind vs) then
    Alcotest.failf "%s: expected a %s violation, got %s" name (Violation.check_name kind)
      (if vs = [] then "a clean report" else Oracle.report vs)

let check_clean name vs =
  if vs <> [] then Alcotest.failf "%s: expected clean, got %s" name (Oracle.report vs)

(* A correct one-job schedule passes every structural checker. *)
let test_clean () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]) ] in
  let s = build inst [ seg 0 0 0. 2. 1. ] [ (0, completed 0 0. 1. 2.) ] in
  check_clean "one-job schedule" (Oracle.structural s)

let test_overlap () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]); (0., [| 2. |]) ] in
  let s =
    build inst
      [ seg 0 0 0. 2. 1.; seg 1 0 1. 3. 1. ]
      [ (0, completed 0 0. 1. 2.); (1, completed 0 1. 1. 3.) ]
  in
  check_has "overlapping segments" Violation.Machine_overlap (Oracle.structural s)

let test_preemption () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]) ] in
  (* Aborted attempt [0,1] (volume 1 < 2), final run [3,5] (volume 2). *)
  let s =
    build inst [ seg 0 0 0. 1. 1.; seg 0 0 3. 5. 1. ] [ (0, completed 0 3. 1. 5.) ]
  in
  check_has "split completed job" Violation.Non_preemption (Oracle.structural s);
  (* The same schedule is legal under the restart relaxation. *)
  check_clean "restart relaxation"
    (Oracle.structural ~mode:(Oracle.mode ~allow_restarts:true ()) s)

let test_release () =
  let inst = Test_util.instance ~machines:1 [ (1., [| 1. |]) ] in
  let s = build inst [ seg 0 0 0.5 1.5 1. ] [ (0, completed 0 0.5 1. 1.5) ] in
  check_has "early start" Violation.Release_respect (Oracle.structural s)

let test_unknown_machine () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]) ] in
  let s = build inst [ seg 0 5 0. 2. 1. ] [ (0, completed 5 0. 1. 2.) ] in
  check_has "unknown machine" Violation.Segment_bounds (Oracle.structural s)

let test_reversed_segment () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 1. |]) ] in
  let s = build inst [ seg 0 0 2. 1. 1. ] [ (0, completed 0 2. 1. 1.) ] in
  check_has "reversed segment" Violation.Segment_bounds (Oracle.structural s)

let test_bad_speed () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]) ] in
  let s = build inst [ seg 0 0 0. 2. 0. ] [ (0, completed 0 0. 0. 2.) ] in
  check_has "zero speed" Violation.Segment_bounds (Oracle.structural s)

let test_missing_segment () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]) ] in
  let s = build inst [] [ (0, completed 0 0. 1. 2.) ] in
  check_has "completed without segment" Violation.Exactly_once (Oracle.structural s)

let test_unknown_job () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]) ] in
  let s = build inst [ seg 7 0 0. 1. 1. ] [ (0, rejected 0.) ] in
  check_has "segment of unknown job" Violation.Exactly_once (Oracle.structural s)

let test_outcome_mismatch () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]) ] in
  let s = build inst [ seg 0 0 0. 2. 1. ] [ (0, completed 0 0. 1. 2.5) ] in
  check_has "outcome interval mismatch" Violation.Outcome_consistency (Oracle.structural s)

let test_volume_mismatch () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 3. |]) ] in
  let s = build inst [ seg 0 0 0. 2. 1. ] [ (0, completed 0 0. 1. 2.) ] in
  check_has "short volume" Violation.Outcome_consistency (Oracle.structural s)

let test_reject_before_release () =
  let inst = Test_util.instance ~machines:1 [ (1., [| 1. |]) ] in
  let s = build inst [] [ (0, rejected 0.5) ] in
  check_has "acausal rejection" Violation.Outcome_consistency (Oracle.structural s)

let test_reject_segment_after_time () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 4. |]) ] in
  let s = build inst [ seg 0 0 0. 2. 1. ] [ (0, rejected ~was_running:true 1.) ] in
  check_has "segment past rejection" Violation.Outcome_consistency (Oracle.structural s)

let test_reject_full_size () =
  let inst = Test_util.instance ~machines:1 [ (0., [| 2. |]) ] in
  let s = build inst [ seg 0 0 0. 2. 1. ] [ (0, rejected ~was_running:true 2.) ] in
  check_has "rejected yet fully processed" Violation.Outcome_consistency (Oracle.structural s)

let test_deadline () =
  let inst = Test_util.deadline_instance ~machines:1 [ (0., 1., [| 2. |]) ] in
  let s = build inst [ seg 0 0 0. 2. 1. ] [ (0, completed 0 0. 1. 2.) ] in
  (* The default mode infers deadline checking from the instance. *)
  check_has "deadline miss" Violation.Deadline (Oracle.structural s);
  check_clean "deadline checking disabled"
    (Oracle.structural ~mode:(Oracle.mode ~check_deadlines:false ()) s)

(* Rejection budgets recount from the outcome array. *)
let budget_fixture () =
  let inst =
    Test_util.instance ~machines:1 [ (0., [| 1. |]); (0., [| 1. |]); (0., [| 1. |]); (0., [| 1. |]) ]
  in
  build inst
    [ seg 0 0 0. 1. 1.; seg 1 0 1. 2. 1. ]
    [ (0, completed 0 0. 1. 1.); (1, completed 0 1. 1. 2.); (2, rejected 0.); (3, rejected 0.) ]

let test_budget_count () =
  let s = budget_fixture () in
  check_clean "structural part" (Oracle.structural s);
  check_has "half rejected vs quarter budget" Violation.Rejection_budget
    (Oracle.budget_check (Oracle.Count_fraction 0.25) s);
  check_clean "half rejected vs half budget" (Oracle.budget_check (Oracle.Count_fraction 0.5) s)

let test_budget_weight () =
  let inst =
    Test_util.weighted_instance ~machines:1 [ (0., 3., [| 1. |]); (0., 1., [| 1. |]) ]
  in
  let s = build inst [ seg 1 0 0. 1. 1. ] [ (0, rejected 0.); (1, completed 0 0. 1. 1.) ] in
  (* 3 of 4 weight units rejected. *)
  check_has "rejected weight over budget" Violation.Rejection_budget
    (Oracle.budget_check (Oracle.Weight_fraction 0.5) s);
  check_clean "rejected weight within budget"
    (Oracle.budget_check (Oracle.Weight_fraction 0.8) s)

(* Reconcile: the driver's incremental metrics must match a recomputation;
   doctored metrics must be flagged as drift. *)
let live_fixture () =
  let entry =
    match Sched_experiments.Policy_registry.find "flow-reject" with
    | Some e -> e
    | None -> Alcotest.fail "flow-reject not registered"
  in
  let inst = Test_util.random_instance ~seed:11 ~n:30 ~m:3 () in
  entry.Sched_experiments.Policy_registry.run inst

let test_reconcile () =
  let schedule, live = live_fixture () in
  check_clean "incremental metrics agree" (Oracle.reconcile live schedule);
  check_has "doctored energy" Violation.Metric_drift
    (Oracle.reconcile { live with Metrics.energy = live.Metrics.energy +. 1. } schedule);
  let r = live.Metrics.rejection in
  let drifted = { live with Metrics.rejection = { r with Metrics.count = r.Metrics.count + 1 } } in
  check_has "doctored rejection count" Violation.Metric_drift (Oracle.reconcile drifted schedule)

let test_full_check () =
  let schedule, live = live_fixture () in
  check_clean "full suite on a real run"
    (Oracle.check ~budget:(Oracle.Count_fraction 0.6) ~live schedule);
  check_has "full suite combines budget" Violation.Rejection_budget
    (Oracle.check ~budget:(Oracle.Count_fraction (-1.)) ~live schedule)

let test_violation_printing () =
  let v = Violation.make ~job:3 ~machine:1 ~at:1.5 Violation.Machine_overlap "jobs collide" in
  let s = Oracle.report [ v ] in
  Alcotest.(check bool) "label present" true (Test_util.contains s "machine-overlap");
  Alcotest.(check bool) "detail present" true (Test_util.contains s "jobs collide");
  let r = Oracle.report [ v; v ] in
  Alcotest.(check bool) "report counts" true (Test_util.contains r "2");
  (* Every constructor has its own label: telemetry counters and reports
     key on it. *)
  let names = List.map Violation.check_name Violation.all_checks in
  Alcotest.(check int) "distinct labels" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_violation_order () =
  let a = Violation.make ~job:0 Violation.Segment_bounds "a" in
  let b = Violation.make ~job:1 Violation.Segment_bounds "a" in
  let c = Violation.make Violation.Metric_drift "z" in
  Alcotest.(check bool) "job tie-break" true (Violation.compare a b < 0);
  Alcotest.(check int) "reflexive" 0 (Violation.compare a a);
  Alcotest.(check bool) "antisymmetric" true
    (Violation.compare a c = -Violation.compare c a)

let test_check_obs () =
  let reg = Sched_obs.Registry.create () in
  Check_obs.record reg [];
  Check_obs.record reg
    [
      Violation.make Violation.Machine_overlap "x";
      Violation.make Violation.Machine_overlap "y";
      Violation.make Violation.Metric_drift "z";
    ];
  let counter ?(labels = []) name =
    match Sched_obs.Registry.find reg ~name ~labels with
    | Some { Sched_obs.Registry.instrument = Sched_obs.Registry.Counter c; _ } ->
        Sched_obs.Metric.Counter.value c
    | _ -> Alcotest.failf "missing counter %s" name
  in
  let per_check check = counter ~labels:[ ("check", check) ] "sched_check_violations_total" in
  Alcotest.(check (float 0.)) "machine-overlap" 2. (per_check "machine-overlap");
  Alcotest.(check (float 0.)) "metric-drift" 1. (per_check "metric-drift");
  Alcotest.(check bool) "no counter for a check that never fired" true
    (Sched_obs.Registry.find reg ~name:"sched_check_violations_total"
       ~labels:[ ("check", "deadline") ]
     = None);
  Alcotest.(check (float 0.)) "schedules audited" 2. (counter "sched_check_schedules_total");
  Alcotest.(check (float 0.)) "clean schedules" 1. (counter "sched_check_clean_total")

(* The registry audit relaxes non-preemption for every restart-spt run.
   The relaxation must be needed exactly where a restart wasted work: a
   restart that kills a job the instant it started lays no partial
   segment, so a run whose restarts all wasted nothing is as strictly
   non-preemptive as one that never restarts.  On every corpus case the
   audit passes, and the strict oracle passes unless some restart row
   carries wasted work, in which case it reports non-preemption.  The
   corpus holds cases of both kinds. *)
let test_restart_relaxation_needed () =
  let module P = Sched_experiments.Policy_registry in
  let module Rec = Sched_obs.Recorder in
  let e = Option.get (P.find "restart-spt") in
  let strict = Oracle.mode ~check_deadlines:false () in
  let wasteful, strict_clean =
    List.fold_left
      (fun (w, c) (case : Sched_fuzz.Corpus.case) ->
        let what = case.Sched_fuzz.Corpus.name in
        let rc = Rec.create ~capacity:65536 () in
        let s, live = e.P.run ~recorder:rc case.Sched_fuzz.Corpus.instance in
        check_clean (what ^ ": registry audit") (P.audit e s live);
        let strict_vs = Oracle.check ~mode:strict ?budget:e.P.budget ~live s in
        if List.exists (fun r -> r.Rec.kind = Rec.Restart && r.Rec.value > 0.) (Rec.entries rc)
        then begin
          check_has (what ^ ": strict oracle, restart wasted work") Violation.Non_preemption
            strict_vs;
          (w + 1, c)
        end
        else begin
          check_clean (what ^ ": strict oracle, no work wasted") strict_vs;
          (w, c + 1)
        end)
      (0, 0) (Sched_fuzz.Corpus.seeds ())
  in
  Alcotest.(check bool) "some case wastes work on a restart" true (wasteful > 0);
  Alcotest.(check bool) "some case runs strictly" true (strict_clean > 0)

let suite =
  [
    Alcotest.test_case "clean schedule passes" `Quick test_clean;
    Alcotest.test_case "machine overlap" `Quick test_overlap;
    Alcotest.test_case "non-preemption / restarts" `Quick test_preemption;
    Alcotest.test_case "release respect" `Quick test_release;
    Alcotest.test_case "unknown machine" `Quick test_unknown_machine;
    Alcotest.test_case "reversed segment" `Quick test_reversed_segment;
    Alcotest.test_case "non-positive speed" `Quick test_bad_speed;
    Alcotest.test_case "completed without segment" `Quick test_missing_segment;
    Alcotest.test_case "unknown job" `Quick test_unknown_job;
    Alcotest.test_case "outcome interval mismatch" `Quick test_outcome_mismatch;
    Alcotest.test_case "processed volume mismatch" `Quick test_volume_mismatch;
    Alcotest.test_case "rejection before release" `Quick test_reject_before_release;
    Alcotest.test_case "segment past rejection" `Quick test_reject_segment_after_time;
    Alcotest.test_case "rejected at full size" `Quick test_reject_full_size;
    Alcotest.test_case "deadline miss" `Quick test_deadline;
    Alcotest.test_case "count budget" `Quick test_budget_count;
    Alcotest.test_case "weight budget" `Quick test_budget_weight;
    Alcotest.test_case "metric reconciliation" `Quick test_reconcile;
    Alcotest.test_case "full check composition" `Quick test_full_check;
    Alcotest.test_case "violation printing" `Quick test_violation_printing;
    Alcotest.test_case "violation ordering" `Quick test_violation_order;
    Alcotest.test_case "telemetry counters" `Quick test_check_obs;
    Alcotest.test_case "restart relaxation needed exactly where work is wasted" `Quick
      test_restart_relaxation_needed;
  ]
