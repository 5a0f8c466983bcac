open Sched_model
module AF = Sched_workload.Adversary_flow
module AE = Sched_workload.Adversary_energy

let test_flow_construction_shape () =
  let r = AF.build ~eps:0.2 ~l:8. ~observed_start:0. in
  Alcotest.(check int) "big jobs" 5 r.AF.big_count;
  Alcotest.(check int) "small jobs" 64 r.AF.small_count;
  Alcotest.(check (float 1e-9)) "delta" 64. r.AF.delta;
  Alcotest.(check int) "instance size" 69 (Instance.n r.AF.instance);
  Alcotest.(check int) "single machine" 1 (Instance.m r.AF.instance);
  (* Adversary cost: 64 small flows of 1/8 each = 8, plus big jobs from
     t0 + L + 1/L = 8.125: completions 16.125, 24.125, ..., 48.125. *)
  let expected_big = (5. *. 8.125) +. (8. *. (1. +. 2. +. 3. +. 4. +. 5.)) in
  Alcotest.(check (float 1e-6)) "adversary cost" (8. +. expected_big) r.AF.adversary_cost

let test_flow_probe () =
  (* The game's first run is the probe: the big jobs alone. *)
  let runs = ref [] in
  let run inst =
    runs := inst :: !runs;
    Test_util.schedule_of
      (Sched_baselines.Immediate_reject.policy ~eps:0.25 Sched_baselines.Immediate_reject.Never)
      inst
  in
  let r, _ = AF.run_two_phase ~run ~eps:0.25 ~l:4. in
  let probe = List.nth !runs (List.length !runs - 1) in
  Alcotest.(check int) "probe has only big jobs" 4 (Instance.n probe);
  Alcotest.(check (float 1e-9)) "non-idling starts at 0" 0. r.AF.observed_start

let test_flow_game_ratio_ordering () =
  (* The immediate policy must fare worse than the paper's algorithm on the
     adversarial instance. *)
  let eps = 0.2 and l = 16. in
  let run_imm i =
    Test_util.schedule_of
      (Sched_baselines.Immediate_reject.policy ~eps Sched_baselines.Immediate_reject.Never)
      i
  in
  let run_rej i = fst (Rejection.Flow_reject.run (Rejection.Flow_reject.config ~eps ()) i) in
  let res_i, s_i = AF.run_two_phase ~run:run_imm ~eps ~l in
  let res_r, s_r = AF.run_two_phase ~run:run_rej ~eps ~l in
  let ratio res s = Test_util.total_flow s /. res.AF.adversary_cost in
  Alcotest.(check bool) "immediate much worse" true
    (ratio res_i s_i > 4. *. ratio res_r s_r)

let test_flow_blowup_grows () =
  let eps = 0.25 in
  let run i =
    Test_util.schedule_of
      (Sched_baselines.Immediate_reject.policy ~eps Sched_baselines.Immediate_reject.Never)
      i
  in
  let ratio l =
    let res, s = AF.run_two_phase ~run ~eps ~l in
    Test_util.total_flow s /. res.AF.adversary_cost
  in
  Alcotest.(check bool) "ratio grows with delta" true (ratio 32. > 2. *. ratio 8.)

let test_flow_schedules_validate () =
  let eps = 0.2 in
  let run i = fst (Rejection.Flow_reject.run (Rejection.Flow_reject.config ~eps ()) i) in
  let _, s = AF.run_two_phase ~run ~eps ~l:8. in
  Schedule.assert_valid ~check_deadlines:false s

(* --- energy adversary --- *)

let greedy_alg alpha =
  let st = Rejection.Energy_config_greedy.continuous ~alpha () in
  {
    AE.name = "greedy";
    place =
      (fun ~release ~deadline ~volume ->
        Rejection.Energy_config_greedy.continuous_place st ~release ~deadline ~volume);
  }

let test_energy_protocol_shape () =
  let alpha = 4. in
  let r = AE.run ~alpha (greedy_alg alpha) in
  Alcotest.(check bool) "at most ceil(alpha) rounds" true (r.AE.rounds <= 4);
  Alcotest.(check bool) "at least one round" true (r.AE.rounds >= 1);
  (* Spans shrink and nest: r_{k+1} = S_k + 1 > r_k, d_{k+1} = C_k <= d_k. *)
  let rec check = function
    | (a : AE.placed) :: (b :: _ as rest) ->
        Alcotest.(check bool) "releases increase" true (b.AE.release > a.AE.release);
        Alcotest.(check bool) "deadlines shrink" true (b.AE.deadline <= a.AE.deadline +. 1e-9);
        Alcotest.(check bool) "volume is span/3" true
          (Float.abs (b.AE.volume -. ((b.AE.deadline -. b.AE.release) /. 3.)) <= 1e-9);
        check rest
    | _ -> ()
  in
  check r.AE.jobs;
  (* First job per the construction. *)
  match r.AE.jobs with
  | first :: _ ->
      Alcotest.(check (float 1e-9)) "d1" (3. ** 5.) first.AE.deadline;
      Alcotest.(check (float 1e-9)) "p1" ((3. ** 5.) /. 3.) first.AE.volume
  | [] -> Alcotest.fail "no jobs"

let test_energy_adv_cost () =
  let alpha = 3. in
  let r = AE.run ~alpha (greedy_alg alpha) in
  let volumes = List.fold_left (fun acc p -> acc +. p.AE.volume) 0. r.AE.jobs in
  Alcotest.(check (float 1e-9)) "adv energy is total volume" volumes r.AE.adv_energy;
  Alcotest.(check bool) "alg pays at least adv-like energy" true (r.AE.alg_energy > 0.)

let test_energy_ratio_within_alpha_alpha () =
  List.iter
    (fun alpha ->
      let r = AE.run ~alpha (greedy_alg alpha) in
      let ratio = r.AE.alg_energy /. r.AE.adv_energy in
      Alcotest.(check bool)
        (Printf.sprintf "alpha=%g ratio %.3f <= alpha^alpha" alpha ratio)
        true
        (ratio <= (alpha ** alpha) +. 1e-6))
    [ 2.; 3.; 4.; 5. ]

let test_energy_ratio_grows () =
  let ratio alpha =
    let r = AE.run ~alpha (greedy_alg alpha) in
    r.AE.alg_energy /. r.AE.adv_energy
  in
  Alcotest.(check bool) "super growth" true (ratio 6. > 10. *. ratio 3.)

let test_energy_infeasible_alg_rejected () =
  let bad =
    { AE.name = "bad"; place = (fun ~release ~deadline:_ ~volume:_ -> (release -. 5., 1.)) }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (AE.run ~alpha:3. bad);
       false
     with Invalid_argument _ -> true)

let test_energy_lazy_alg_overlaps () =
  (* An algorithm always running at min speed over the full span maximizes
     overlap; the adversary still measures finite energy. *)
  let lazy_alg =
    {
      AE.name = "full-span";
      place = (fun ~release ~deadline ~volume -> (release, volume /. (deadline -. release)));
    }
  in
  let r = AE.run ~alpha:3. lazy_alg in
  Alcotest.(check bool) "rounds capped" true (r.AE.rounds <= 3);
  Alcotest.(check bool) "positive energy" true (r.AE.alg_energy > 0.)

let suite =
  [
    Alcotest.test_case "flow construction shape" `Quick test_flow_construction_shape;
    Alcotest.test_case "flow probe" `Quick test_flow_probe;
    Alcotest.test_case "flow ratio ordering" `Quick test_flow_game_ratio_ordering;
    Alcotest.test_case "flow blow-up grows" `Quick test_flow_blowup_grows;
    Alcotest.test_case "flow schedules validate" `Quick test_flow_schedules_validate;
    Alcotest.test_case "energy protocol shape" `Quick test_energy_protocol_shape;
    Alcotest.test_case "energy adversary cost" `Quick test_energy_adv_cost;
    Alcotest.test_case "energy ratio within alpha^alpha" `Quick test_energy_ratio_within_alpha_alpha;
    Alcotest.test_case "energy ratio grows" `Quick test_energy_ratio_grows;
    Alcotest.test_case "energy infeasible alg rejected" `Quick test_energy_infeasible_alg_rejected;
    Alcotest.test_case "energy lazy alg overlaps" `Quick test_energy_lazy_alg_overlaps;
  ]
