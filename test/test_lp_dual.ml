module FR = Rejection.Flow_reject
module DF = Sched_lp.Dual_fit

let test_flow_lp_below_opt () =
  List.iter
    (fun seed ->
      let inst = Sched_workload.Suite.tiny ~seed ~n:6 ~m:2 in
      let opt = Option.get (Sched_baselines.Brute_force.optimal_flow inst) in
      match Sched_lp.Flow_lp.solve inst with
      | Some sol ->
          Alcotest.(check bool)
            (Printf.sprintf "lb %.2f <= opt %.2f" sol.Sched_lp.Flow_lp.opt_lower_bound opt)
            true
            (sol.Sched_lp.Flow_lp.opt_lower_bound <= opt +. 1e-6)
      | None -> Alcotest.fail "LP should fit the budget")
    [ 1; 2; 3; 7 ]

let test_flow_lp_single_job () =
  (* One job released at 0 with p = 2 on one machine: OPT = 2, the LP's
     fractional flow understates, so lp/2 <= 2 and lp >= p (the processing
     term alone integrates to p). *)
  let inst = Test_util.instance [ (0., [| 2. |]) ] in
  match Sched_lp.Flow_lp.solve inst with
  | Some sol ->
      Alcotest.(check bool) "lp >= p" true (sol.Sched_lp.Flow_lp.lp_value >= 2. -. 1e-6);
      Alcotest.(check bool) "lb <= opt" true (sol.Sched_lp.Flow_lp.opt_lower_bound <= 2. +. 1e-6)
  | None -> Alcotest.fail "should solve"

let test_flow_lp_budget_none () =
  let gen = Sched_workload.Suite.flow_uniform ~n:200 ~m:4 in
  let inst = Sched_workload.Gen.instance gen ~seed:1 in
  Alcotest.(check bool) "over budget -> None" true
    (Sched_lp.Flow_lp.solve ~max_variables:100 inst = None)

let certify seed eps =
  let gen = Sched_workload.Suite.flow_pareto ~n:80 ~m:3 in
  let inst = Sched_workload.Gen.instance gen ~seed in
  let trace = Sched_sim.Trace.create () in
  let schedule, st, _ = Sched_sim.Driver.run ~trace (FR.policy (FR.config ~eps ())) inst in
  (* The certificate is stated at the effective (integral-threshold)
     epsilon the run actually realizes. *)
  DF.certify ~eps:(FR.effective_eps st) ~lambdas:(FR.lambdas st) inst trace schedule

let test_dual_feasibility () =
  let r = certify 42 0.25 in
  Alcotest.(check bool)
    (Printf.sprintf "dispatch-machine slack %.2e >= -1e-6" r.DF.min_slack_dispatch_machine)
    true
    (r.DF.min_slack_dispatch_machine >= -1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "overall slack %.2e >= -quantum" r.DF.min_constraint_slack)
    true
    (r.DF.min_constraint_slack >= -.r.DF.counterfactual_quantum -. 1e-6);
  Alcotest.(check bool) "checked many" true (r.DF.constraints_checked > 1000)

let test_beta_identity () =
  let r = certify 7 0.3 in
  let eps = r.DF.eps in
  let expected = eps /. ((1. +. eps) ** 2.) *. r.DF.ctilde_sum in
  Alcotest.(check bool) "beta integral identity" true
    (Float.abs (r.DF.beta_integral -. expected) <= 1e-6 *. Float.max 1. expected)

let test_ctilde_dominates_flow () =
  let r = certify 11 0.2 in
  Alcotest.(check bool) "sum(C~ - r) >= algorithm flow" true
    (r.DF.ctilde_sum >= r.DF.algo_flow -. 1e-6)

let test_lambda_lower_bound () =
  let r = certify 23 0.25 in
  Alcotest.(check bool) "sum lambda >= eps/(1+eps) sum(C~-r)" true
    (r.DF.lambda_sum >= (r.DF.eps /. (1. +. r.DF.eps) *. r.DF.ctilde_sum) -. 1e-6)

let test_primal_over_dual_bounded_property () =
  QCheck.Test.make ~name:"primal/dual <= ((1+eps)/eps)^2 (Theorem 1 proof)" ~count:20
    QCheck.(pair (int_bound 1000) (float_range 0.15 0.6))
    (fun (seed, eps) ->
      let r = certify seed eps in
      let e = r.DF.eps in
      (* Lemma 4 holds strictly on each job's dispatch machine; on other
         machines the realized beta may fall one counterfactual-job
         quantum short (see Dual_fit's documentation / EXPERIMENTS.md). *)
      r.DF.min_slack_dispatch_machine >= -1e-6
      && r.DF.min_constraint_slack >= -.r.DF.counterfactual_quantum -. 1e-6
      && r.DF.primal_over_dual <= (((1. +. e) /. e) ** 2.) +. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_dual_below_lp () =
  (* Weak duality on a small instance: the dual objective built from the
     algorithm's variables is at most the (discretized) LP optimum, up to
     discretization slack. *)
  let inst = Sched_workload.Suite.tiny ~seed:3 ~n:6 ~m:2 in
  let trace = Sched_sim.Trace.create () in
  let schedule, st, _ = Sched_sim.Driver.run ~trace (FR.policy (FR.config ~eps:0.25 ())) inst in
  let r = DF.certify ~eps:(FR.effective_eps st) ~lambdas:(FR.lambdas st) inst trace schedule in
  match Sched_lp.Flow_lp.solve inst with
  | Some sol ->
      Alcotest.(check bool) "dual <= lp (2% slack)" true
        (r.DF.dual_objective <= (sol.Sched_lp.Flow_lp.lp_value *. 1.02) +. 1e-6)
  | None -> Alcotest.fail "lp should solve"

let suite =
  [
    Alcotest.test_case "flow LP below OPT" `Quick test_flow_lp_below_opt;
    Alcotest.test_case "flow LP single job" `Quick test_flow_lp_single_job;
    Alcotest.test_case "flow LP budget" `Quick test_flow_lp_budget_none;
    Alcotest.test_case "dual feasibility (Lemma 4)" `Quick test_dual_feasibility;
    Alcotest.test_case "beta integral identity" `Quick test_beta_identity;
    Alcotest.test_case "C~ dominates flow" `Quick test_ctilde_dominates_flow;
    Alcotest.test_case "lambda lower bound" `Quick test_lambda_lower_bound;
    test_primal_over_dual_bounded_property ();
    Alcotest.test_case "weak duality vs LP" `Quick test_dual_below_lp;
  ]

let test_corollary1_invariant () =
  List.iter
    (fun (seed, eps) ->
      let r = certify seed eps in
      let bound = (1. /. r.DF.eps) +. 2. in
      Alcotest.(check bool)
        (Printf.sprintf "U/(R+1) = %.2f <= %.1f (eps=%g)" r.DF.corollary1_max_ratio bound eps)
        true
        (r.DF.corollary1_max_ratio <= bound +. 1e-9))
    [ (42, 0.25); (7, 0.5); (11, 0.2); (23, 1. /. 3.) ]

let suite = suite @ [ Alcotest.test_case "Corollary 1 invariant" `Quick test_corollary1_invariant ]
