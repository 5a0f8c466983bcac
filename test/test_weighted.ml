open Sched_model
module FRW = Rejection.Flow_reject_weighted

let run ?(eps = 0.25) ?(rule1 = true) ?(rule2 = true) inst =
  let s, st, _ = Sched_sim.Driver.run (FRW.policy (FRW.config ~eps ~rule1 ~rule2 ())) inst in
  Schedule.assert_valid ~check_deadlines:false s;
  (s, st)

let test_hdf_service () =
  (* Queued jobs are served by density, not size. *)
  let inst =
    Test_util.weighted_instance
      [ (0., 1., [| 1. |]); (0.1, 1., [| 2. |]); (0.2, 10., [| 5. |]) ]
  in
  let s, _ = run ~rule1:false ~rule2:false inst in
  let start id =
    match Schedule.outcome s id with
    | Outcome.Completed c -> c.Outcome.start
    | Outcome.Rejected _ -> Float.nan
  in
  (* Job 2 has density 2, job 1 density 0.5: job 2 first. *)
  Alcotest.(check bool) "denser first" true (start 2 < start 1)

let test_rule1w_weighted_threshold () =
  (* Running job of weight 4 with eps = 0.5 survives 8 of dispatched
     weight and is rejected beyond. *)
  let inst =
    Test_util.weighted_instance
      [ (0., 4., [| 1000. |]); (1., 5., [| 1. |]); (2., 5., [| 1. |]) ]
  in
  (* Rule 2w is off, so every rejection is rule 1w's. *)
  let s, _ = run ~eps:0.5 ~rule2:false inst in
  Alcotest.(check int) "one rule-1w rejection" 1 (Metrics.rejection s).Metrics.count;
  match Schedule.outcome s 0 with
  | Outcome.Rejected r -> Alcotest.(check (float 1e-9)) "at second arrival" 2. r.Outcome.time
  | Outcome.Completed _ -> Alcotest.fail "should be rejected (10 > 8)"

let test_rule2w_rejects_largest_volume () =
  (* Rule 2w: accumulated weight >= (1+1/eps) * weight of the
     largest-processing pending job. *)
  let inst =
    Test_util.weighted_instance
      [ (0., 1., [| 1000. |]); (1., 1., [| 50. |]); (2., 2., [| 2. |]) ]
  in
  (* eps=0.5: threshold factor 3. After job 2 arrives c = 4; largest
     pending is job 1 (p=50, w=1): 4 >= 3*1, reject job 1. *)
  let s, _ = run ~eps:0.5 ~rule1:false inst in
  Alcotest.(check bool) "rule-2w fired" true ((Metrics.rejection s).Metrics.count >= 1);
  match Schedule.outcome s 1 with
  | Outcome.Rejected _ -> ()
  | Outcome.Completed _ -> Alcotest.fail "largest pending should be rejected"

let test_weight_budget_property () =
  QCheck.Test.make ~name:"weighted rejections <= 2 eps W" ~count:30
    QCheck.(pair (int_bound 1000) (float_range 0.15 0.8))
    (fun (seed, eps) ->
      let gen =
        Sched_workload.Gen.make
          ~sizes:(Sched_stats.Dist.bounded_pareto ~shape:1.5 ~lo:1. ~hi:50.)
          ~weights:(Sched_stats.Dist.bounded_pareto ~shape:1.8 ~lo:1. ~hi:10.)
          ~n:80 ~m:3 ()
      in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s, _ = run ~eps inst in
      (Metrics.rejection s).Metrics.weight_fraction <= (2. *. eps) +. 1e-9)
  |> QCheck_alcotest.to_alcotest

let test_valid_schedules_property () =
  QCheck.Test.make ~name:"weighted policy schedules validate" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let gen = Sched_workload.Suite.weighted_energy ~n:60 ~m:3 ~alpha:3. in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s, _ = run inst in
      match Schedule.validate ~check_deadlines:false s with Ok () -> true | Error _ -> false)
  |> QCheck_alcotest.to_alcotest

let test_beats_no_rejection_on_heavy_tail () =
  (* With elephants and mice, rejection should reduce weighted flow. *)
  let gen =
    Sched_workload.Gen.make
      ~arrivals:(Sched_workload.Gen.Batched { every = 10.; size = 6 })
      ~sizes:(Sched_stats.Dist.bimodal ~lo:1. ~hi:80. ~p_hi:0.1)
      ~weights:(Sched_stats.Dist.uniform ~lo:1. ~hi:5.)
      ~n:120 ~m:2 ()
  in
  let worse = ref 0 in
  List.iter
    (fun seed ->
      let inst = Sched_workload.Gen.instance gen ~seed in
      let with_r, _ = run ~eps:0.25 inst in
      let without, _ = run ~eps:0.25 ~rule1:false ~rule2:false inst in
      let wf s = (Metrics.flow s).Metrics.weighted_with_rejected in
      if wf with_r > wf without then incr worse)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "rejection helps on most seeds" true (!worse <= 1)

let suite =
  [
    Alcotest.test_case "HDF service order" `Quick test_hdf_service;
    Alcotest.test_case "rule 1w threshold" `Quick test_rule1w_weighted_threshold;
    Alcotest.test_case "rule 2w largest volume" `Quick test_rule2w_rejects_largest_volume;
    test_weight_budget_property ();
    test_valid_schedules_property ();
    Alcotest.test_case "rejection helps heavy tails" `Quick test_beats_no_rejection_on_heavy_tail;
  ]
