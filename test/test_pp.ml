(* Smoke tests for every pretty-printer: formatting must never raise and
   must contain the load-bearing numbers. *)

open Sched_model

let render pp v = Format.asprintf "%a" pp v

let test_job_pp () =
  let j = Job.create ~id:3 ~release:1.5 ~weight:2. ~deadline:9. ~sizes:[| 2.; Float.infinity |] () in
  let out = render Job.pp j in
  Alcotest.(check bool) "mentions id and deadline" true
    (Test_util.contains out "job#3" && Test_util.contains out "d=9")

let test_machine_pp () =
  let m = Machine.create ~id:1 ~speed:2. ~alpha:2.5 () in
  Alcotest.(check bool) "fields" true (Test_util.contains (render Machine.pp m) "speed=2")

let test_instance_pp_stats () =
  let inst = Test_util.instance ~machines:2 [ (0., [| 2.; 3. |]) ] in
  let out = render Instance.pp_stats inst in
  Alcotest.(check bool) "n and m" true (Test_util.contains out "n=1" && Test_util.contains out "m=2")

let test_outcome_pp () =
  let c = Outcome.Completed { machine = 0; start = 1.; speed = 2.; finish = 3. } in
  let r = Outcome.Rejected { time = 4.; assigned_to = Some 1; was_running = true } in
  Alcotest.(check bool) "completed" true (Test_util.contains (render Outcome.pp c) "completed");
  Alcotest.(check bool) "rejected mid-run" true (Test_util.contains (render Outcome.pp r) "mid-run")

let test_summary_pp () =
  let s = Sched_stats.Summary.of_array [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "mean present" true
    (Test_util.contains (render Sched_stats.Summary.pp s) "mean=2")

let test_trace_pp () =
  let entries =
    [
      { Sched_sim.Trace.time = 1.; event = Sched_sim.Trace.Dispatch { job = 0; machine = 1 } };
      { Sched_sim.Trace.time = 2.; event = Sched_sim.Trace.Start { job = 0; machine = 1; speed = 1. } };
      { Sched_sim.Trace.time = 3.; event = Sched_sim.Trace.Complete { job = 0; machine = 1 } };
      {
        Sched_sim.Trace.time = 4.;
        event = Sched_sim.Trace.Reject { job = 2; machine = 1; was_running = false; remaining = 5. };
      };
      { Sched_sim.Trace.time = 5.; event = Sched_sim.Trace.Restart { job = 3; machine = 0; wasted = 2. } };
    ]
  in
  List.iter
    (fun e ->
      let out = render Sched_sim.Trace.pp_entry e in
      Alcotest.(check bool) "non-empty" true (String.length out > 5))
    entries

let test_dual_fit_pp () =
  let gen = Sched_workload.Suite.flow_uniform ~n:30 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:2 in
  let trace = Sched_sim.Trace.create () in
  let schedule, st = Rejection.Flow_reject.run ~trace (Rejection.Flow_reject.config ~eps:0.25 ()) inst in
  let r =
    Sched_lp.Dual_fit.certify
      ~eps:(Rejection.Flow_reject.effective_eps st)
      ~lambdas:(Rejection.Flow_reject.lambdas st)
      inst trace schedule
  in
  Alcotest.(check bool) "report renders" true
    (Test_util.contains (render Sched_lp.Dual_fit.pp_report r) "dual-fit")

let test_gen_describe () =
  let gen = Sched_workload.Suite.flow_diurnal ~n:10 ~m:2 in
  Alcotest.(check bool) "describe mentions arrivals" true
    (Test_util.contains (Sched_workload.Gen.describe gen) "diurnal")

let suite =
  [
    Alcotest.test_case "job pp" `Quick test_job_pp;
    Alcotest.test_case "machine pp" `Quick test_machine_pp;
    Alcotest.test_case "instance pp_stats" `Quick test_instance_pp_stats;
    Alcotest.test_case "outcome pp" `Quick test_outcome_pp;
    Alcotest.test_case "summary pp" `Quick test_summary_pp;
    Alcotest.test_case "trace pp" `Quick test_trace_pp;
    Alcotest.test_case "dual-fit pp" `Quick test_dual_fit_pp;
    Alcotest.test_case "gen describe" `Quick test_gen_describe;
  ]
