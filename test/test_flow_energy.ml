open Sched_model
module FE = Rejection.Flow_energy_reject

let run ?(eps = 0.25) ?gamma inst =
  let cfg = FE.config ?gamma ~eps () in
  let s, st, _ = Sched_sim.Driver.run (FE.policy cfg) inst in
  Schedule.assert_valid ~check_deadlines:false s;
  (s, st)

let test_single_job_speed () =
  (* One job of weight w on an idle machine: execution speed must be
     gamma * w^(1/alpha). *)
  let inst = Test_util.weighted_instance ~alpha:3. [ (0., 8., [| 4. |]) ] in
  let gamma = 0.7 in
  let s, _ = run ~gamma inst in
  match Schedule.outcome s 0 with
  | Outcome.Completed c ->
      Alcotest.(check (float 1e-9)) "speed" (gamma *. (8. ** (1. /. 3.))) c.Outcome.speed
  | Outcome.Rejected _ -> Alcotest.fail "should complete"

let test_speed_grows_with_queue () =
  (* Job 0 occupies the machine while jobs 1 and 2 queue up; when job 0
     finishes, the next start sees pending weight 2 (speed sqrt 2 at
     gamma = 1, alpha = 2) and the final start sees weight 1 (speed 1). *)
  let inst =
    Test_util.weighted_instance ~alpha:2.
      [ (0., 1., [| 2. |]); (0.5, 1., [| 2. |]); (0.6, 1., [| 2. |]) ]
  in
  let s, _ = run ~gamma:1. inst in
  let speeds =
    List.filter_map
      (fun id ->
        match Schedule.outcome s id with
        | Outcome.Completed c -> Some (c.Outcome.start, c.Outcome.speed)
        | Outcome.Rejected _ -> None)
      [ 1; 2 ]
    |> List.sort (fun (a1, s1) (a2, s2) ->
           match Float.compare a1 a2 with 0 -> Float.compare s1 s2 | c -> c)
  in
  match speeds with
  | [ (_, s1); (_, s2) ] ->
      Alcotest.(check (float 1e-9)) "first queued start sees weight 2" (sqrt 2.) s1;
      Alcotest.(check (float 1e-9)) "second queued start sees weight 1" 1. s2
  | _ -> Alcotest.fail "expected two completions"

let test_hdf_order () =
  (* Jobs 1 and 2 queue behind job 0; the denser (heavier) one is served
     first when the machine frees up. *)
  let inst =
    Test_util.weighted_instance ~alpha:3.
      [ (0., 1., [| 1. |]); (0.1, 1., [| 10. |]); (0.2, 10., [| 10. |]) ]
  in
  let s, _ = run ~gamma:1. inst in
  let start id =
    match Schedule.outcome s id with
    | Outcome.Completed c -> c.Outcome.start
    | Outcome.Rejected _ -> Float.nan
  in
  Alcotest.(check bool) "denser job first" true (start 2 < start 1)

let test_weighted_rejection_rule () =
  (* eps = 0.5: running job of weight 1 is rejected once dispatched weight
     during its run exceeds 1/0.5 = 2. *)
  let inst =
    Test_util.weighted_instance ~alpha:3.
      [ (0., 1., [| 1000. |]); (0.1, 1.5, [| 1. |]); (0.2, 1.5, [| 1. |]) ]
  in
  let s, _ = run ~eps:0.5 ~gamma:1. inst in
  Alcotest.(check int) "one rejection" 1 (Metrics.rejection s).Metrics.count;
  match Schedule.outcome s 0 with
  | Outcome.Rejected r -> Alcotest.(check (float 1e-9)) "rejected at 0.2" 0.2 r.Outcome.time
  | Outcome.Completed _ -> Alcotest.fail "heavy-volume job should be rejected"

let test_weight_budget_property () =
  QCheck.Test.make ~name:"rejected weight <= eps * total weight (Theorem 2)" ~count:30
    QCheck.(pair (int_bound 1000) (float_range 0.1 0.8))
    (fun (seed, eps) ->
      let gen = Sched_workload.Suite.weighted_energy ~n:60 ~m:2 ~alpha:3. in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s, _ = run ~eps inst in
      (Metrics.rejection s).Metrics.weight_fraction <= eps +. 1e-9)
  |> QCheck_alcotest.to_alcotest

let test_schedules_valid_property () =
  QCheck.Test.make ~name:"flow-energy schedules always validate" ~count:30
    QCheck.(pair (int_bound 1000) (float_range 1.6 3.5))
    (fun (seed, alpha) ->
      let gen = Sched_workload.Suite.weighted_energy ~n:50 ~m:3 ~alpha in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s, _ = run inst in
      Test_util.valid ~check_deadlines:false s)
  |> QCheck_alcotest.to_alcotest

let test_objective_vs_lb_property () =
  QCheck.Test.make ~name:"flow+energy within Theorem 2 bound of per-job LB" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let eps = 0.25 and alpha = 3. in
      let gen = Sched_workload.Suite.weighted_energy ~n:50 ~m:2 ~alpha in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s, _ = run ~eps inst in
      let obj = (Metrics.flow s).Metrics.weighted_with_rejected +. Metrics.energy s in
      let lb = Sched_energy.Energy_bounds.flow_energy_lb inst in
      obj <= (Rejection.Bounds.flow_energy_competitive ~eps ~alpha *. lb) +. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_gamma_default_used () =
  let inst = Test_util.weighted_instance ~alpha:3. [ (0., 1., [| 1. |]) ] in
  let _, st = run ~eps:0.3 inst in
  let expected = Rejection.Bounds.gamma_best ~eps:0.3 ~alpha:3. in
  Alcotest.(check (float 1e-12)) "default gamma" expected (FE.gamma_of_machine st 0)

let test_lambdas_positive () =
  let gen = Sched_workload.Suite.weighted_energy ~n:40 ~m:2 ~alpha:2. in
  let inst = Sched_workload.Gen.instance gen ~seed:5 in
  let _, st = run inst in
  Array.iter (fun l -> Alcotest.(check bool) "positive" true (l > 0.)) (FE.lambdas st)

let suite =
  [
    Alcotest.test_case "single job speed" `Quick test_single_job_speed;
    Alcotest.test_case "speed follows pending weight" `Quick test_speed_grows_with_queue;
    Alcotest.test_case "highest density first" `Quick test_hdf_order;
    Alcotest.test_case "weighted rejection rule" `Quick test_weighted_rejection_rule;
    test_weight_budget_property ();
    test_schedules_valid_property ();
    test_objective_vs_lb_property ();
    Alcotest.test_case "default gamma" `Quick test_gamma_default_used;
    Alcotest.test_case "lambdas positive" `Quick test_lambdas_positive;
  ]

let test_speed_formula_invariant () =
  (* Replay the trace: at every Start, the recorded speed must equal
     gamma * (total weight of jobs dispatched-but-not-settled)^(1/alpha). *)
  let alpha = 3. in
  let gen = Sched_workload.Suite.weighted_energy ~n:60 ~m:2 ~alpha in
  let inst = Sched_workload.Gen.instance gen ~seed:21 in
  let trace = Sched_sim.Trace.create () in
  let _, st, _ = Sched_sim.Driver.run ~trace (FE.policy (FE.config ~eps:0.25 ())) inst in
  let open Sched_sim in
  let alive = Array.make 2 [] in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Dispatch { job; machine } -> alive.(machine) <- job :: alive.(machine)
      | Trace.Complete { job; machine } | Trace.Reject { job; machine; _ } ->
          alive.(machine) <- List.filter (fun x -> x <> job) alive.(machine)
      | Trace.Start { job = _; machine; speed } ->
          let w =
            List.fold_left
              (fun acc id -> acc +. (Instance.job inst id).Job.weight)
              0. alive.(machine)
          in
          let expected = FE.gamma_of_machine st machine *. (w ** (1. /. alpha)) in
          Alcotest.(check (float 1e-9)) "speed = gamma W^(1/alpha)" expected speed
      | Trace.Restart _ -> Alcotest.fail "no restarts expected")
    (Trace.events trace)

let test_heterogeneous_alpha () =
  (* Machines with different alphas: per-machine gammas differ and the
     schedule stays valid. *)
  let machines =
    [| Machine.create ~id:0 ~alpha:2. (); Machine.create ~id:1 ~alpha:3. () |]
  in
  let jobs =
    List.init 20 (fun id ->
        Job.create ~id
          ~release:(float_of_int id *. 0.7)
          ~weight:(1. +. float_of_int (id mod 3))
          ~sizes:[| 2. +. float_of_int (id mod 5); 3. |]
          ())
  in
  let inst = Instance.create ~machines ~jobs () in
  let s, st, _ = Sched_sim.Driver.run (FE.policy (FE.config ~eps:0.25 ())) inst in
  Schedule.assert_valid ~check_deadlines:false s;
  Alcotest.(check bool) "gammas differ across alphas" true
    (FE.gamma_of_machine st 0 <> FE.gamma_of_machine st 1)

let suite =
  suite
  @ [
      Alcotest.test_case "speed formula invariant (trace replay)" `Quick
        test_speed_formula_invariant;
      Alcotest.test_case "heterogeneous alpha" `Quick test_heterogeneous_alpha;
    ]
