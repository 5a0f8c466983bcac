open Sched_model

let test_fifo_valid () =
  let gen = Sched_workload.Suite.flow_uniform ~n:60 ~m:3 in
  let inst = Sched_workload.Gen.instance gen ~seed:2 in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst in
  Schedule.assert_valid s;
  Alcotest.(check int) "no rejections" 0 (Metrics.rejection s).Metrics.count

let test_spt_beats_fifo_on_mixed () =
  (* SPT is typically better for total flow with mixed sizes. *)
  let gen = Sched_workload.Suite.flow_bimodal ~n:120 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:5 in
  let fifo = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst in
  let spt = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst in
  Alcotest.(check bool) "spt <= fifo" true
    (Test_util.total_flow spt <= Test_util.total_flow fifo +. 1e-6)

let test_fifo_order () =
  let inst = Test_util.instance [ (0., [| 5. |]); (0.1, [| 1. |]) ] in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst in
  match (Schedule.outcome s 0, Schedule.outcome s 1) with
  | Outcome.Completed a, Outcome.Completed b ->
      Alcotest.(check bool) "fifo keeps arrival order" true (a.Outcome.start < b.Outcome.start)
  | _ -> Alcotest.fail "both complete"

let test_immediate_budget_property () =
  QCheck.Test.make ~name:"immediate policies respect eps budget" ~count:30
    QCheck.(triple (int_bound 1000) (float_range 0.1 0.5) bool)
    (fun (seed, eps, use_load) ->
      let h =
        if use_load then Sched_baselines.Immediate_reject.Load_threshold 2.
        else Sched_baselines.Immediate_reject.Largest_over 1.5
      in
      let gen = Sched_workload.Suite.flow_pareto ~n:80 ~m:2 in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s = Test_util.schedule_of (Sched_baselines.Immediate_reject.policy ~eps h) inst in
      (Test_util.valid ~check_deadlines:false s)
      && float_of_int (Metrics.rejection s).Metrics.count <= (eps *. 80.) +. 1e-9)
  |> QCheck_alcotest.to_alcotest

let test_immediate_never_rejects_nothing () =
  let gen = Sched_workload.Suite.flow_uniform ~n:50 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:4 in
  let s =
    Test_util.schedule_of
      (Sched_baselines.Immediate_reject.policy ~eps:0.5 Sched_baselines.Immediate_reject.Never)
      inst
  in
  Alcotest.(check int) "never rejects" 0 (Metrics.rejection s).Metrics.count

let test_immediate_rejections_at_arrival_only () =
  let gen = Sched_workload.Suite.flow_bimodal ~n:80 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:6 in
  let s =
    Test_util.schedule_of
      (Sched_baselines.Immediate_reject.policy ~eps:0.3
         (Sched_baselines.Immediate_reject.Largest_over 1.5))
      inst
  in
  Array.iter
    (fun (j : Job.t) ->
      match Schedule.outcome s j.Job.id with
      | Outcome.Rejected r ->
          Alcotest.(check (float 1e-9)) "rejected at its own release" j.Job.release r.Outcome.time;
          Alcotest.(check bool) "never mid-run" false r.Outcome.was_running
      | Outcome.Completed _ -> ())
    (Instance.jobs_by_release inst)

let test_speed_augmented_faster_machines () =
  let gen = Sched_workload.Suite.flow_uniform ~n:60 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:8 in
  (* The registry's speed-augmented entry: Rule 1 at eps_r = 0.2 on the
     fleet sped up by 1 + eps_s = 1.5. *)
  let e = Option.get (Sched_experiments.Policy_registry.find ~eps:0.2 "speed-augmented") in
  let s, live = e.Sched_experiments.Policy_registry.run inst in
  for i = 0 to Instance.m inst - 1 do
    Alcotest.(check (float 1e-12)) "speed scaled" 1.5
      (Instance.machine s.Schedule.instance i).Machine.speed
  done;
  Test_util.assert_audit ~what:"speed-augmented" e s live

let test_srpt_known_value () =
  (* Jobs (r=0, p=3), (r=1, p=1): SRPT preempts -> flows: job1 completes at
     2 (flow 1), job0 at 4 (flow 4): total 5. *)
  let inst = Test_util.instance [ (0., [| 3. |]); (1., [| 1. |]) ] in
  Alcotest.(check (float 1e-9)) "srpt" 5. (Sched_baselines.Srpt_single.total_flow inst)

let test_srpt_below_opt_property () =
  QCheck.Test.make ~name:"SRPT (preemptive) <= brute OPT (non-preemptive)" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let inst = Sched_workload.Suite.tiny ~seed ~n:7 ~m:1 in
      let srpt = Sched_baselines.Srpt_single.total_flow inst in
      let opt = Option.get (Sched_baselines.Brute_force.optimal_flow inst) in
      srpt <= opt +. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_srpt_requires_single_machine () =
  let inst = Test_util.instance ~machines:2 [ (0., [| 1.; 1. |]) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sched_baselines.Srpt_single.total_flow inst);
       false
     with Invalid_argument _ -> true)

let test_brute_force_known () =
  (* Two jobs at 0 with p=1 and p=3 on one machine: SPT order optimal,
     flows 1 and 4 -> 5. *)
  let inst = Test_util.instance [ (0., [| 3. |]); (0., [| 1. |]) ] in
  Alcotest.(check (option (float 1e-9))) "opt" (Some 5.)
    (Sched_baselines.Brute_force.optimal_flow inst)

let test_brute_force_uses_both_machines () =
  (* Two equal jobs at 0, two machines: run in parallel, flows 2 + 2. *)
  let inst = Test_util.instance ~machines:2 [ (0., [| 2.; 2. |]); (0., [| 2.; 2. |]) ] in
  Alcotest.(check (option (float 1e-9))) "parallel opt" (Some 4.)
    (Sched_baselines.Brute_force.optimal_flow inst)

let test_brute_force_respects_eligibility () =
  let inst =
    Test_util.instance ~machines:2 [ (0., [| 2.; Float.infinity |]); (0., [| 2.; Float.infinity |]) ]
  in
  (* Both forced on machine 0: flows 2 + 4 = 6. *)
  Alcotest.(check (option (float 1e-9))) "restricted opt" (Some 6.)
    (Sched_baselines.Brute_force.optimal_flow inst)

let test_brute_force_size_cap () =
  let gen = Sched_workload.Suite.flow_uniform ~n:20 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:1 in
  Alcotest.(check bool) "over cap -> None" true
    (Sched_baselines.Brute_force.optimal_flow inst = None)

let test_brute_below_any_policy_property () =
  QCheck.Test.make ~name:"brute OPT <= any online policy's cost" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 1 2))
    (fun (seed, m) ->
      let inst = Sched_workload.Suite.tiny ~seed ~n:6 ~m in
      let opt = Option.get (Sched_baselines.Brute_force.optimal_flow inst) in
      let fifo = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst in
      let spt = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst in
      opt <= Test_util.total_flow fifo +. 1e-6 && opt <= Test_util.total_flow spt +. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_lower_bounds_ordering () =
  let inst = Sched_workload.Suite.tiny ~seed:5 ~n:6 ~m:1 in
  let volume = (Sched_baselines.Lower_bounds.volume inst).Sched_baselines.Lower_bounds.value in
  let best = (Sched_baselines.Lower_bounds.best_flow inst).Sched_baselines.Lower_bounds.value in
  let opt = Option.get (Sched_baselines.Brute_force.optimal_flow inst) in
  Alcotest.(check bool) "volume <= best" true (volume <= best +. 1e-9);
  Alcotest.(check bool) "best <= opt (best includes opt)" true (Float.abs (best -. opt) <= 1e-6)

let suite =
  [
    Alcotest.test_case "fifo valid" `Quick test_fifo_valid;
    Alcotest.test_case "spt <= fifo on bimodal" `Quick test_spt_beats_fifo_on_mixed;
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    test_immediate_budget_property ();
    Alcotest.test_case "immediate-never rejects nothing" `Quick test_immediate_never_rejects_nothing;
    Alcotest.test_case "immediate rejects at arrival only" `Quick
      test_immediate_rejections_at_arrival_only;
    Alcotest.test_case "speed augmentation" `Quick test_speed_augmented_faster_machines;
    Alcotest.test_case "srpt known value" `Quick test_srpt_known_value;
    test_srpt_below_opt_property ();
    Alcotest.test_case "srpt single machine only" `Quick test_srpt_requires_single_machine;
    Alcotest.test_case "brute force known" `Quick test_brute_force_known;
    Alcotest.test_case "brute force parallel" `Quick test_brute_force_uses_both_machines;
    Alcotest.test_case "brute force eligibility" `Quick test_brute_force_respects_eligibility;
    Alcotest.test_case "brute force cap" `Quick test_brute_force_size_cap;
    test_brute_below_any_policy_property ();
    Alcotest.test_case "lower bounds ordering" `Quick test_lower_bounds_ordering;
  ]

let test_local_search_improves () =
  let gen = Sched_workload.Suite.flow_bimodal ~n:60 ~m:2 in
  (* Seed 1 is a congested instance where the greedy start is far from
     locally optimal (4379 -> 1341 in 42 moves). *)
  let inst = Sched_workload.Gen.instance gen ~seed:1 in
  let r = Sched_baselines.Local_search.improve inst in
  Alcotest.(check bool) "no worse than greedy" true
    (r.Sched_baselines.Local_search.cost <= r.Sched_baselines.Local_search.initial_cost +. 1e-6);
  Alcotest.(check bool) "strictly improves here" true
    (r.Sched_baselines.Local_search.moves > 0
    && r.Sched_baselines.Local_search.cost < 0.5 *. r.Sched_baselines.Local_search.initial_cost)

let test_local_search_above_opt_property () =
  QCheck.Test.make ~name:"local search stays above brute-force OPT" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 1 2))
    (fun (seed, m) ->
      let inst = Sched_workload.Suite.tiny ~seed ~n:7 ~m in
      let r = Sched_baselines.Local_search.improve inst in
      let opt = Option.get (Sched_baselines.Brute_force.optimal_flow inst) in
      r.Sched_baselines.Local_search.cost >= opt -. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_local_search_often_finds_opt () =
  (* On tiny instances the relocate neighborhood usually reaches the
     optimum; require it on at least 3 of 5 seeds. *)
  let hits = ref 0 in
  List.iter
    (fun seed ->
      let inst = Sched_workload.Suite.tiny ~seed ~n:6 ~m:2 in
      let r = Sched_baselines.Local_search.improve inst in
      let opt = Option.get (Sched_baselines.Brute_force.optimal_flow inst) in
      if r.Sched_baselines.Local_search.cost <= opt +. 1e-6 then incr hits)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) (Printf.sprintf "reached OPT on %d/5" !hits) true (!hits >= 3)

let test_fractional_flow () =
  (* Single job p=4 run immediately: waiting 0, execution contributes
     d/2 = 2. *)
  let inst = Test_util.instance [ (0., [| 4. |]) ] in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst in
  Alcotest.(check (float 1e-9)) "d/2" 2. (Metrics.fractional_flow s);
  (* Two jobs at 0, FIFO: job 1 waits 2 then runs 3: 2 + 1.5; job 0: 1. *)
  let inst2 = Test_util.instance [ (0., [| 2. |]); (0., [| 3. |]) ] in
  let s2 = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst2 in
  Alcotest.(check (float 1e-9)) "waiting + halves" 4.5 (Metrics.fractional_flow s2)

let test_fractional_flow_lp_relation () =
  QCheck.Test.make ~name:"LP value <= fractional flow + volume of any schedule" ~count:15
    QCheck.(int_bound 1000)
    (fun seed ->
      let inst = Sched_workload.Suite.tiny ~seed ~n:6 ~m:2 in
      let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst in
      let frac = Metrics.fractional_flow s in
      let volume =
        List.fold_left
          (fun acc (g : Schedule.segment) ->
            acc +. ((g.Schedule.stop -. g.Schedule.start) *. g.Schedule.speed))
          0. s.Schedule.segments
      in
      match Sched_lp.Flow_lp.solve inst with
      | Some sol -> sol.Sched_lp.Flow_lp.lp_value <= frac +. volume +. 1e-6
      | None -> true)
  |> QCheck_alcotest.to_alcotest

let suite =
  suite
  @ [
      Alcotest.test_case "local search improves" `Quick test_local_search_improves;
      test_local_search_above_opt_property ();
      Alcotest.test_case "local search finds OPT on tiny" `Quick test_local_search_often_finds_opt;
      Alcotest.test_case "fractional flow" `Quick test_fractional_flow;
      test_fractional_flow_lp_relation ();
    ]
