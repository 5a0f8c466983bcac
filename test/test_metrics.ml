open Sched_model

(* One machine (alpha defaults to 3), three jobs:
   job 0: r=0 p=2 -> runs [0,2), flow 2
   job 1: r=0 p=4 -> runs [2,6), flow 6, weight 2
   job 2: r=1 p=9 -> rejected at t=3 after running never, flow 2. *)
let fixture () =
  let inst =
    Test_util.weighted_instance
      [ (0., 1., [| 2. |]); (0., 2., [| 4. |]); (1., 4., [| 9. |]) ]
  in
  let b = Schedule.builder inst in
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 2.; speed = 1. };
  Schedule.set_outcome b 0 (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 2. });
  Schedule.add_segment b { Schedule.job = 1; machine = 0; start = 2.; stop = 6.; speed = 1. };
  Schedule.set_outcome b 1 (Outcome.Completed { machine = 0; start = 2.; speed = 1.; finish = 6. });
  Schedule.set_outcome b 2 (Outcome.Rejected { time = 3.; assigned_to = Some 0; was_running = false });
  Schedule.finalize b

let test_flow () =
  let f = Metrics.flow (fixture ()) in
  Alcotest.(check (float 1e-9)) "total" 8. f.Metrics.total;
  Alcotest.(check (float 1e-9)) "weighted" (2. +. (2. *. 6.)) f.Metrics.weighted;
  Alcotest.(check (float 1e-9)) "with rejected" 10. f.Metrics.total_with_rejected;
  Alcotest.(check (float 1e-9)) "weighted with rejected" (14. +. (4. *. 2.))
    f.Metrics.weighted_with_rejected;
  Alcotest.(check (float 1e-9)) "max flow" 6. f.Metrics.max_flow;
  Alcotest.(check (float 1e-9)) "mean flow" 4. f.Metrics.mean_flow;
  Alcotest.(check (float 1e-9)) "max stretch" 1.5 f.Metrics.max_stretch

let test_makespan () = Alcotest.(check (float 1e-9)) "makespan" 6. (Metrics.makespan (fixture ()))

let test_rejection () =
  let r = Metrics.rejection (fixture ()) in
  Alcotest.(check int) "count" 1 r.Metrics.count;
  Alcotest.(check (float 1e-9)) "fraction" (1. /. 3.) r.Metrics.fraction;
  Alcotest.(check (float 1e-9)) "weight" 4. r.Metrics.weight;
  Alcotest.(check (float 1e-9)) "weight fraction" (4. /. 7.) r.Metrics.weight_fraction;
  Alcotest.(check int) "mid-run" 0 r.Metrics.mid_run

let test_energy_exclusive () =
  (* alpha = 3: energy of [0,2) at speed 1 plus [2,6) at speed 1 = 6. *)
  Alcotest.(check (float 1e-9)) "energy" 6. (Metrics.energy (fixture ()))

let test_energy_speed () =
  let inst = Test_util.weighted_instance ~alpha:2. [ (0., 1., [| 6. |]) ] in
  let b = Schedule.builder inst in
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 2.; speed = 3. };
  Schedule.set_outcome b 0 (Outcome.Completed { machine = 0; start = 0.; speed = 3.; finish = 2. });
  let s = Schedule.finalize b in
  (* alpha=2, speed 3 for 2 time units: 9 * 2 = 18. *)
  Alcotest.(check (float 1e-9)) "energy speed^alpha*t" 18. (Metrics.energy s)

let test_energy_parallel_superadditive () =
  (* Two overlapping unit-speed segments on one alpha=2 machine: aggregate
     speed 2 on the overlap, so energy uses (1+1)^2, not 1+1. *)
  let inst =
    Test_util.deadline_instance ~alpha:2. [ (0., 4., [| 2. |]); (0., 4., [| 2. |]) ]
  in
  let b = Schedule.builder inst in
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 2.; speed = 1. };
  Schedule.set_outcome b 0 (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 2. });
  Schedule.add_segment b { Schedule.job = 1; machine = 0; start = 1.; stop = 3.; speed = 1. };
  Schedule.set_outcome b 1 (Outcome.Completed { machine = 0; start = 1.; speed = 1.; finish = 3. });
  let s = Schedule.finalize b in
  (* [0,1): 1, [1,2): 4, [2,3): 1 -> 6. *)
  Alcotest.(check (float 1e-9)) "parallel energy" 6. (Metrics.energy s)

let test_busy_and_utilization () =
  let s = fixture () in
  Alcotest.(check (float 1e-9)) "busy" 6. (Metrics.busy_time s 0);
  (* Utilization 1: the machine is busy over the whole makespan. *)
  Alcotest.(check (float 1e-9)) "utilization" (Metrics.makespan s) (Metrics.busy_time s 0)

let test_busy_merges_overlap () =
  let inst =
    Test_util.deadline_instance ~alpha:2. [ (0., 4., [| 2. |]); (0., 4., [| 2. |]) ]
  in
  let b = Schedule.builder inst in
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 2.; speed = 1. };
  Schedule.set_outcome b 0 (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 2. });
  Schedule.add_segment b { Schedule.job = 1; machine = 0; start = 1.; stop = 3.; speed = 1. };
  Schedule.set_outcome b 1 (Outcome.Completed { machine = 0; start = 1.; speed = 1.; finish = 3. });
  let s = Schedule.finalize b in
  Alcotest.(check (float 1e-9)) "merged busy time" 3. (Metrics.busy_time s 0)

let suite =
  [
    Alcotest.test_case "flow metrics" `Quick test_flow;
    Alcotest.test_case "makespan" `Quick test_makespan;
    Alcotest.test_case "rejection metrics" `Quick test_rejection;
    Alcotest.test_case "energy exclusive" `Quick test_energy_exclusive;
    Alcotest.test_case "energy speed^alpha" `Quick test_energy_speed;
    Alcotest.test_case "energy parallel superadditive" `Quick test_energy_parallel_superadditive;
    Alcotest.test_case "busy time and utilization" `Quick test_busy_and_utilization;
    Alcotest.test_case "busy time merges overlap" `Quick test_busy_merges_overlap;
  ]

let test_fractional_below_integral () =
  (* Fractional flow is always at most the integral flow. *)
  let gen = Sched_workload.Suite.flow_pareto ~n:60 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:11 in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst in
  let frac = Metrics.fractional_flow s in
  let full = (Metrics.flow s).Metrics.total in
  Alcotest.(check bool)
    (Printf.sprintf "frac %.1f <= flow %.1f" frac full)
    true (frac <= full +. 1e-9);
  Alcotest.(check bool) "at least half (waiting dominates execution halving)" true
    (frac >= 0.5 *. full -. 1e-9)

let test_flow_values_shapes () =
  let inst = Test_util.instance [ (0., [| 2. |]); (0., [| 50. |]); (1., [| 1. |]) ] in
  let s =
    Test_util.schedule_of
      (Rejection.Flow_reject.policy (Rejection.Flow_reject.config ~eps:0.5 ~rule2:false ()))
      inst
  in
  let completed = Metrics.flow_values s in
  let all = Metrics.flow_values ~include_rejected:true s in
  Alcotest.(check bool) "rejected excluded by default" true
    (Array.length completed <= Array.length all);
  Array.iter (fun v -> Alcotest.(check bool) "non-negative" true (v >= 0.)) all

let suite =
  suite
  @ [
      Alcotest.test_case "fractional <= integral flow" `Quick test_fractional_below_integral;
      Alcotest.test_case "flow_values shapes" `Quick test_flow_values_shapes;
    ]
