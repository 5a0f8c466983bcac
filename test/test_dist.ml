open Sched_stats

let rng () = Rng.create 123

let sample_many d k =
  let r = rng () in
  List.init k (fun _ -> Dist.sample d r)

let check_all_positive name d =
  List.iter (fun x -> Alcotest.(check bool) (name ^ " positive") true (x > 0.)) (sample_many d 500)

let test_constant () =
  let d = Dist.constant 4.2 in
  List.iter (fun x -> Alcotest.(check (float 0.)) "constant" 4.2 x) (sample_many d 20);
  Alcotest.(check (option (float 1e-9))) "mean" (Some 4.2) (Dist.mean d)

let test_uniform_bounds () =
  let d = Dist.uniform ~lo:2. ~hi:5. in
  List.iter
    (fun x -> Alcotest.(check bool) "in bounds" true (x >= 2. && x <= 5.))
    (sample_many d 500)

let test_bounded_pareto_bounds () =
  let d = Dist.bounded_pareto ~shape:1.5 ~lo:1. ~hi:100. in
  List.iter
    (fun x -> Alcotest.(check bool) "in [1,100]" true (x >= 1. && x <= 100.))
    (sample_many d 1000)

let test_bounded_pareto_mean () =
  let d = Dist.bounded_pareto ~shape:1.5 ~lo:1. ~hi:100. in
  let samples = sample_many d 100000 in
  let mean = List.fold_left ( +. ) 0. samples /. 100000. in
  match Dist.mean d with
  | None -> Alcotest.fail "bounded pareto mean should be known"
  | Some mu ->
      Alcotest.(check bool)
        (Printf.sprintf "empirical %.3f ~ theoretical %.3f" mean mu)
        true
        (Float.abs (mean -. mu) /. mu < 0.1)

let test_bimodal_values () =
  let d = Dist.bimodal ~lo:1. ~hi:50. ~p_hi:0.2 in
  List.iter
    (fun x -> Alcotest.(check bool) "lo or hi" true (x = 1. || x = 50.))
    (sample_many d 300)

let test_bimodal_proportion () =
  let d = Dist.bimodal ~lo:1. ~hi:50. ~p_hi:0.2 in
  let k = 20000 in
  let highs = List.length (List.filter (fun x -> x = 50.) (sample_many d k)) in
  let p = float_of_int highs /. float_of_int k in
  Alcotest.(check bool) "p_hi ~ 0.2" true (Float.abs (p -. 0.2) < 0.02)

let test_exponential_positive () = check_all_positive "exp" (Dist.exponential ~mean:3.)
let test_lognormal_positive () = check_all_positive "lognormal" (Dist.lognormal ~mu:0.5 ~sigma:1.)

let test_quantize_grid () =
  let d = Dist.quantize ~grid:0.5 (Dist.uniform ~lo:0.1 ~hi:3.) in
  List.iter
    (fun x ->
      let q = x /. 0.5 in
      Alcotest.(check bool) "multiple of grid" true (Float.abs (q -. Float.round q) < 1e-9);
      Alcotest.(check bool) "positive" true (x > 0.))
    (sample_many d 300)

let test_invalid_args () =
  Alcotest.check_raises "uniform lo<=0" (Invalid_argument "assertion failed") (fun () ->
      try ignore (Dist.uniform ~lo:0. ~hi:1.) with Assert_failure _ -> raise (Invalid_argument "assertion failed"))

let suite =
  [
    Alcotest.test_case "constant" `Quick test_constant;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "bounded pareto bounds" `Quick test_bounded_pareto_bounds;
    Alcotest.test_case "bounded pareto mean" `Slow test_bounded_pareto_mean;
    Alcotest.test_case "bimodal values" `Quick test_bimodal_values;
    Alcotest.test_case "bimodal proportion" `Quick test_bimodal_proportion;
    Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
    Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
    Alcotest.test_case "quantize grid" `Quick test_quantize_grid;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
  ]
