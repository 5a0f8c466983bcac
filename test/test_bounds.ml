module B = Rejection.Bounds

let test_flow_competitive () =
  (* eps = 1 is out of range; eps = 0.5 -> 2 * 3^2 = 18. *)
  Alcotest.(check (float 1e-9)) "eps=0.5" 18. (B.flow_competitive ~eps:0.5);
  Alcotest.(check (float 1e-9)) "eps=0.1" (2. *. (11. ** 2.)) (B.flow_competitive ~eps:0.1)

let test_flow_budget () =
  Alcotest.(check (float 1e-12)) "budget" 0.5 (B.flow_rejection_budget ~eps:0.25)

let test_thresholds () =
  Alcotest.(check int) "rule1 eps=0.5" 2 (B.rule1_threshold ~eps:0.5);
  Alcotest.(check int) "rule1 eps=0.3" 4 (B.rule1_threshold ~eps:0.3);
  Alcotest.(check int) "rule2 eps=0.5" 3 (B.rule2_threshold ~eps:0.5);
  Alcotest.(check int) "rule2 eps=0.25" 5 (B.rule2_threshold ~eps:0.25)

let test_monotone_in_eps () =
  (* The bound degrades as eps shrinks (less rejection allowed). *)
  Alcotest.(check bool) "monotone" true
    (B.flow_competitive ~eps:0.1 > B.flow_competitive ~eps:0.2
    && B.flow_competitive ~eps:0.2 > B.flow_competitive ~eps:0.4)

let test_eps_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "eps=0" true (raises (fun () -> B.flow_competitive ~eps:0.));
  Alcotest.(check bool) "eps=1" true (raises (fun () -> B.flow_competitive ~eps:1.));
  Alcotest.(check bool) "alpha<=1" true (raises (fun () -> B.gamma ~eps:0.5 ~alpha:1.))

let test_gamma_positive () =
  List.iter
    (fun alpha ->
      List.iter
        (fun eps ->
          let g = B.gamma ~eps ~alpha in
          Alcotest.(check bool) "gamma positive finite" true (g > 0. && Float.is_finite g))
        [ 0.1; 0.3; 0.5; 0.9 ])
    [ 1.2; 1.6; 2.; 3.; 5. ]

let test_flow_energy_ratio_shape () =
  (* The ratio is infinite for tiny gamma (denominator <= 0) and finite at
     the optimized gamma. *)
  Alcotest.(check bool) "tiny gamma infeasible" true
    (B.flow_energy_ratio ~eps:0.25 ~alpha:3. ~gamma:1e-6 = Float.infinity);
  let g = B.gamma_best ~eps:0.25 ~alpha:3. in
  let r = B.flow_energy_ratio ~eps:0.25 ~alpha:3. ~gamma:g in
  Alcotest.(check bool) "optimized finite" true (Float.is_finite r && r > 1.)

let test_gamma_best_is_no_worse_than_papers () =
  List.iter
    (fun (eps, alpha) ->
      let paper = B.gamma ~eps ~alpha in
      let best = B.gamma_best ~eps ~alpha in
      Alcotest.(check bool) "best <= paper's choice" true
        (B.flow_energy_ratio ~eps ~alpha ~gamma:best
        <= B.flow_energy_ratio ~eps ~alpha ~gamma:paper +. 1e-6))
    [ (0.25, 3.); (0.5, 3.); (0.1, 2.5); (0.4, 4.) ]

let test_flow_energy_competitive_grows_as_envelope () =
  (* Ratio should grow when eps shrinks, roughly like the envelope. *)
  let r1 = B.flow_energy_competitive ~eps:0.1 ~alpha:3. in
  let r2 = B.flow_energy_competitive ~eps:0.5 ~alpha:3. in
  Alcotest.(check bool) "monotone in eps" true (r1 > r2);
  let e1 = B.flow_energy_envelope ~eps:0.1 ~alpha:3. in
  Alcotest.(check bool) "at least envelope order" true (r1 > e1)

let test_energy_bounds () =
  Alcotest.(check (float 1e-9)) "alpha^alpha" 27. (B.energy_competitive ~alpha:3.);
  Alcotest.(check (float 1e-9)) "(alpha/9)^alpha" ((1. /. 3.) ** 3.) (B.energy_lb ~alpha:3.);
  Alcotest.(check bool) "lb < ub" true (B.energy_lb ~alpha:5. < B.energy_competitive ~alpha:5.)

let test_smooth_constants () =
  Alcotest.(check (float 1e-12)) "mu" (2. /. 3.) (B.smooth_mu ~alpha:3.);
  Alcotest.(check (float 1e-9)) "lambda" 9. (B.smooth_lambda ~alpha:3.)

let suite =
  [
    Alcotest.test_case "flow competitive" `Quick test_flow_competitive;
    Alcotest.test_case "flow budget" `Quick test_flow_budget;
    Alcotest.test_case "rule thresholds" `Quick test_thresholds;
    Alcotest.test_case "monotone in eps" `Quick test_monotone_in_eps;
    Alcotest.test_case "eps validation" `Quick test_eps_validation;
    Alcotest.test_case "gamma positive" `Quick test_gamma_positive;
    Alcotest.test_case "flow-energy ratio shape" `Quick test_flow_energy_ratio_shape;
    Alcotest.test_case "gamma_best beats paper's gamma" `Quick test_gamma_best_is_no_worse_than_papers;
    Alcotest.test_case "flow-energy bound growth" `Quick test_flow_energy_competitive_grows_as_envelope;
    Alcotest.test_case "energy bounds" `Quick test_energy_bounds;
    Alcotest.test_case "smooth constants" `Quick test_smooth_constants;
  ]
