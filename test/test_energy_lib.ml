open Sched_energy

let job release deadline volume = { Yds.release; deadline; volume }

let test_power_eval () =
  let p = Power.polynomial ~alpha:3. in
  Alcotest.(check (float 1e-9)) "2^3" 8. (Power.eval p 2.);
  Alcotest.(check (float 1e-9)) "0" 0. (Power.eval p 0.)

let test_power_affine () =
  let p = Power.affine_polynomial ~alpha:2. ~static:3. in
  Alcotest.(check (float 1e-9)) "P(0)=0" 0. (Power.eval p 0.);
  Alcotest.(check (float 1e-9)) "P(2)=7" 7. (Power.eval p 2.)

let test_power_piecewise () =
  let p = Power.piecewise [ (1., 1.); (2., 4.) ] in
  Alcotest.(check (float 1e-9)) "below 1" 1. (Power.eval p 0.5);
  Alcotest.(check (float 1e-9)) "at 2" 4. (Power.eval p 2.);
  Alcotest.(check (float 1e-9)) "clamped" 4. (Power.eval p 5.);
  Alcotest.(check (float 1e-9)) "zero" 0. (Power.eval p 0.)

let test_optimal_speed () =
  (* d/ds (w/s + s^(a-1)) = 0 -> s = (w/(a-1))^(1/a). *)
  let s = Power.optimal_speed_for_flow ~alpha:3. ~weight:2. in
  Alcotest.(check (float 1e-9)) "formula" 1. s;
  (* Verify it is a minimum by sampling. *)
  let cost s = (2. /. s) +. (s ** 2.) in
  Alcotest.(check bool) "minimum" true (cost s <= cost (s *. 1.1) && cost s <= cost (s *. 0.9))

let test_yds_single_job () =
  (* One job: constant speed p/(d-r) over its window. *)
  let e = Yds.optimal_energy ~alpha:3. [ job 0. 4. 2. ] in
  Alcotest.(check (float 1e-9)) "single job" ((0.5 ** 3.) *. 4.) e

let test_yds_two_disjoint () =
  let e = Yds.optimal_energy ~alpha:2. [ job 0. 2. 2.; job 2. 4. 2. ] in
  Alcotest.(check (float 1e-9)) "disjoint unit speed" 4. e

let test_yds_nested () =
  (* Outer [0,4] volume 2, inner [1,3] volume 4: critical interval [1,3]
     at speed 2 (energy 2*4=8 for alpha 2), outer spreads over remaining
     2 units at speed 1 -> +2. *)
  let e = Yds.optimal_energy ~alpha:2. [ job 0. 4. 2.; job 1. 3. 4. ] in
  Alcotest.(check (float 1e-9)) "nested" 10. e

let test_yds_below_avr_property () =
  QCheck.Test.make ~name:"YDS <= AVR (YDS optimality)" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 8) (triple (float_range 0. 10.) (float_range 0.5 5.) (float_range 0.5 5.)))
    (fun raw ->
      let jobs = List.map (fun (r, span, v) -> job r (r +. span) v) raw in
      let yds = Yds.optimal_energy ~alpha:3. jobs in
      let avr = Avr.energy ~alpha:3. jobs in
      yds <= avr +. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_yds_above_perjob_property () =
  QCheck.Test.make ~name:"YDS >= sum of per-job bounds (superadditivity)" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 8) (triple (float_range 0. 10.) (float_range 0.5 5.) (float_range 0.5 5.)))
    (fun raw ->
      let jobs = List.map (fun (r, span, v) -> job r (r +. span) v) raw in
      let alpha = 2.5 in
      let yds = Yds.optimal_energy ~alpha jobs in
      let perjob =
        List.fold_left
          (fun acc (j : Yds.job) ->
            acc +. ((j.Yds.volume ** alpha) /. ((j.Yds.deadline -. j.Yds.release) ** (alpha -. 1.))))
          0. jobs
      in
      yds >= perjob -. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_avr_single_job () =
  let e = Avr.energy ~alpha:2. [ job 0. 4. 2. ] in
  Alcotest.(check (float 1e-9)) "avr single" 1. e

let test_avr_overlap () =
  (* Two identical jobs [0,2] volume 2 -> density 1 each, speed 2 on [0,2]:
     energy 2^2 * 2 = 8 for alpha 2. *)
  let e = Avr.energy ~alpha:2. [ job 0. 2. 2.; job 0. 2. 2. ] in
  Alcotest.(check (float 1e-9)) "avr overlap" 8. e

let test_deadline_energy_lb () =
  let inst = Test_util.deadline_instance ~alpha:2. [ (0., 2., [| 2. |]); (2., 4., [| 2. |]) ] in
  (* Each job: p^2/span = 4/2 = 2. *)
  Alcotest.(check (float 1e-9)) "per-job lb" 4. (Energy_bounds.deadline_energy_lb inst)

let test_yds_lb_tighter () =
  let inst = Test_util.deadline_instance ~alpha:2. [ (0., 2., [| 2. |]); (0., 2., [| 2. |]) ] in
  let lb, src = Energy_bounds.best_deadline_energy inst in
  (* Superadditive: 2+2 = 4; YDS: speed 2 over [0,2] -> 8. *)
  Alcotest.(check string) "yds wins" "yds" src;
  Alcotest.(check (float 1e-9)) "value" 8. lb

let test_flow_energy_lb_formula () =
  let inst = Test_util.weighted_instance ~alpha:3. [ (0., 2., [| 4. |]) ] in
  (* s* = 1, cost = p (w/s + s^2) = 4 * 3 = 12. *)
  Alcotest.(check (float 1e-9)) "per-job flow+energy lb" 12.
    (Energy_bounds.flow_energy_lb inst)

let test_required_lambda_alpha2 () =
  (* For s^2 with mu = 1/2 the worst case over our generators should land
     near 3 (single spike against a ramp) and certainly within [2, 6]. *)
  let rng = Sched_stats.Rng.create 7 in
  let l = Smooth.required_lambda ~trials:500 (Power.polynomial ~alpha:2.) ~mu:0.5 rng in
  Alcotest.(check bool) (Printf.sprintf "lambda ~ 3 (got %.3f)" l) true (l >= 2. && l <= 6.)

let test_smooth_check () =
  let rng = Sched_stats.Rng.create 11 in
  Alcotest.(check bool) "holds for generous lambda" true
    (Smooth.required_lambda ~trials:300 (Power.polynomial ~alpha:2.) ~mu:0.5 rng <= 10. +. 1e-9)

let suite =
  [
    Alcotest.test_case "power eval" `Quick test_power_eval;
    Alcotest.test_case "power affine" `Quick test_power_affine;
    Alcotest.test_case "power piecewise" `Quick test_power_piecewise;
    Alcotest.test_case "optimal speed for flow" `Quick test_optimal_speed;
    Alcotest.test_case "yds single job" `Quick test_yds_single_job;
    Alcotest.test_case "yds disjoint" `Quick test_yds_two_disjoint;
    Alcotest.test_case "yds nested" `Quick test_yds_nested;
    test_yds_below_avr_property ();
    test_yds_above_perjob_property ();
    Alcotest.test_case "avr single" `Quick test_avr_single_job;
    Alcotest.test_case "avr overlap" `Quick test_avr_overlap;
    Alcotest.test_case "deadline energy lb" `Quick test_deadline_energy_lb;
    Alcotest.test_case "yds lb tighter" `Quick test_yds_lb_tighter;
    Alcotest.test_case "flow+energy lb formula" `Quick test_flow_energy_lb_formula;
    Alcotest.test_case "required lambda alpha=2" `Quick test_required_lambda_alpha2;
    Alcotest.test_case "smooth check" `Quick test_smooth_check;
  ]
