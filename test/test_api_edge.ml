(* Tests for the one-call API and model/driver edge cases. *)

open Sched_model

(* --- Api --- *)

let test_api_run_flow () =
  let inst = Sched_workload.Suite.tiny ~seed:1 ~n:20 ~m:2 in
  let r = Rejection.Api.run_flow ~eps:0.25 inst in
  Alcotest.(check bool) "flow positive" true (r.Rejection.Api.flow.Metrics.total > 0.);
  Alcotest.(check (float 1e-9)) "bound" 50. r.Rejection.Api.competitive_bound;
  Alcotest.(check (float 1e-9)) "budget" 0.5 r.Rejection.Api.rejection_budget;
  Alcotest.(check bool) "budget respected" true
    (r.Rejection.Api.rejection.Metrics.fraction <= 0.5 +. 1e-9)

(* --- edge cases --- *)

let test_empty_instance () =
  let inst = Instance.create ~machines:(Machine.fleet 2) ~jobs:[] () in
  Alcotest.(check int) "n = 0" 0 (Instance.n inst);
  let r = Rejection.Api.run_flow inst in
  Alcotest.(check (float 0.)) "zero flow" 0. r.Rejection.Api.flow.Metrics.total;
  Alcotest.(check int) "no rejections" 0 r.Rejection.Api.rejection.Metrics.count;
  (* Energy greedy also accepts the empty (deadline-free) instance is
     invalid — it requires deadlines; but an empty job list has all jobs
     carrying deadlines vacuously false per Instance.has_deadlines. *)
  Alcotest.(check bool) "has_deadlines is false on empty" false (Instance.has_deadlines inst)

let test_single_job_flow () =
  let inst = Test_util.instance [ (5., [| 3. |]) ] in
  let r = Rejection.Api.run_flow ~eps:0.1 inst in
  Alcotest.(check (float 1e-9)) "flow = p" 3. r.Rejection.Api.flow.Metrics.total;
  Alcotest.(check (float 1e-9)) "ratio 1 vs opt" 3.
    (Option.get (Sched_baselines.Brute_force.optimal_flow inst))

let test_extreme_eps () =
  let gen = Sched_workload.Suite.flow_pareto ~n:60 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:4 in
  (* Very small eps: thresholds huge, nothing rejected in a 60-job run. *)
  let tiny = Rejection.Api.run_flow ~eps:0.01 inst in
  Alcotest.(check bool) "tiny eps rejects nothing here" true
    (tiny.Rejection.Api.rejection.Metrics.fraction <= 0.02 +. 1e-9);
  (* Near-1 eps: aggressive; budget 2*eps is nearly 2 so trivially ok, but
     schedule must stay valid. *)
  let big = Rejection.Api.run_flow ~eps:0.99 inst in
  Alcotest.(check bool) "valid at eps ~ 1" true
    (match Schedule.validate ~check_deadlines:false big.Rejection.Api.schedule with
    | Ok () -> true
    | Error _ -> false)

let test_simultaneous_releases () =
  (* Many jobs at the same instant; event ordering must stay deterministic
     and the schedule valid. *)
  let inst =
    Test_util.instance ~machines:2
      (List.init 12 (fun k -> (0., [| 1. +. float_of_int (k mod 3); 2. |])))
  in
  let r1 = Rejection.Api.run_flow ~eps:0.3 inst in
  let r2 = Rejection.Api.run_flow ~eps:0.3 inst in
  Alcotest.(check (float 0.)) "deterministic" r1.Rejection.Api.flow.Metrics.total
    r2.Rejection.Api.flow.Metrics.total

let test_identical_sizes_ties () =
  let inst = Test_util.instance (List.init 8 (fun _ -> (0., [| 2. |]))) in
  let r = Rejection.Api.run_flow ~eps:0.45 inst in
  Alcotest.(check bool) "valid with all ties" true
    (match Schedule.validate ~check_deadlines:false r.Rejection.Api.schedule with
    | Ok () -> true
    | Error _ -> false)

let test_huge_size_spread () =
  let inst =
    Test_util.instance [ (0., [| 1e-6 |]); (0., [| 1e6 |]); (1., [| 1. |]) ]
  in
  let r = Rejection.Api.run_flow ~eps:0.4 inst in
  Alcotest.(check bool) "valid with 12 orders of magnitude" true
    (match Schedule.validate ~check_deadlines:false r.Rejection.Api.schedule with
    | Ok () -> true
    | Error _ -> false)

let test_driver_empty_instance () =
  let inst = Instance.create ~machines:(Machine.fleet 1) ~jobs:[] () in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst in
  Alcotest.(check (float 0.)) "empty makespan" 0. (Metrics.makespan s)

let test_work_conservation () =
  (* Our policies never idle a machine with pending work: every Start in
     the trace happens when nothing else runs there, and total busy time
     equals processed volume. *)
  let gen = Sched_workload.Suite.flow_uniform ~n:50 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:9 in
  let trace = Sched_sim.Trace.create () in
  let s, _ = Rejection.Flow_reject.run ~trace (Rejection.Flow_reject.config ~eps:0.25 ()) inst in
  let processed =
    List.fold_left
      (fun acc (g : Schedule.segment) -> acc +. ((g.Schedule.stop -. g.Schedule.start) *. g.Schedule.speed))
      0. s.Schedule.segments
  in
  let busy = Metrics.busy_time s 0 +. Metrics.busy_time s 1 in
  Alcotest.(check (float 1e-6)) "busy time = processed volume (speed 1)" processed busy

let suite =
  [
    Alcotest.test_case "api run_flow" `Quick test_api_run_flow;
    Alcotest.test_case "empty instance" `Quick test_empty_instance;
    Alcotest.test_case "single job" `Quick test_single_job_flow;
    Alcotest.test_case "extreme eps" `Quick test_extreme_eps;
    Alcotest.test_case "simultaneous releases" `Quick test_simultaneous_releases;
    Alcotest.test_case "identical sizes ties" `Quick test_identical_sizes_ties;
    Alcotest.test_case "huge size spread" `Quick test_huge_size_spread;
    Alcotest.test_case "driver empty instance" `Quick test_driver_empty_instance;
    Alcotest.test_case "work conservation" `Quick test_work_conservation;
  ]

let test_soak_large_instance () =
  (* 100k jobs on 16 machines: the full Theorem 1 run plus full schedule
     validation must finish in seconds and respect the budget. *)
  let gen = Sched_workload.Suite.flow_pareto ~n:100_000 ~m:16 in
  let inst = Sched_workload.Gen.instance gen ~seed:7 in
  let t0 = Sys.time () in
  let s, _ = Rejection.Flow_reject.run (Rejection.Flow_reject.config ~eps:0.25 ()) inst in
  Schedule.assert_valid ~check_deadlines:false s;
  let elapsed = Sys.time () -. t0 in
  let r = Metrics.rejection s in
  Alcotest.(check bool)
    (Printf.sprintf "finished in %.2fs" elapsed)
    true (elapsed < 30.);
  Alcotest.(check bool) "budget at scale" true (r.Metrics.fraction <= 0.5 +. 1e-9);
  Alcotest.(check int) "everything settled" 100_000
    (Test_util.completed_count s + r.Metrics.count)

let suite = suite @ [ Alcotest.test_case "soak: 100k jobs" `Slow test_soak_large_instance ]
