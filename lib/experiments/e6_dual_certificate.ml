open Sched_stats
module FR = Rejection.Flow_reject
module DF = Sched_lp.Dual_fit

let certify_on inst eps =
  let trace = Sched_sim.Trace.create () in
  let schedule, st, live = Sched_sim.Driver.run ~trace (FR.policy (FR.config ~eps ())) inst in
  Exp_util.assert_audit (Exp_util.entry ~eps "flow-reject") schedule live;
  (* Certify at the effective (integral-threshold) epsilon of the run. *)
  DF.certify ~eps:(FR.effective_eps st) ~lambdas:(FR.lambdas st) inst trace schedule

let main_table ~quick =
  let n = Exp_util.scale ~quick 120 and m = 3 in
  let table =
    Table.create ~title:"E6a: dual-fitting certificate (Lemma 4) on standard workloads"
      ~columns:
        [
          "workload"; "eps"; "slack(disp)"; "slack(all)"; "quantum"; "checked"; "primal/dual";
          "proof-bound"; "ok";
        ]
  in
  let epss = if quick then [ 0.25 ] else [ 0.1; 0.25; 0.5 ] in
  List.iter
    (fun gen ->
      List.iter
        (fun eps ->
          let inst = Sched_workload.Gen.instance gen ~seed:42 in
          let r = certify_on inst eps in
          let proof_bound = ((1. +. r.DF.eps) /. r.DF.eps) ** 2. in
          Table.add_row table
            [
              gen.Sched_workload.Gen.name;
              Table.cell_float eps;
              Printf.sprintf "%.2e" r.DF.min_slack_dispatch_machine;
              Printf.sprintf "%.2e" r.DF.min_constraint_slack;
              Printf.sprintf "%.3f" r.DF.counterfactual_quantum;
              Table.cell_int r.DF.constraints_checked;
              Table.cell_float r.DF.primal_over_dual;
              Table.cell_float proof_bound;
              Table.cell_bool
                (r.DF.min_slack_dispatch_machine >= -1e-6
                && r.DF.min_constraint_slack >= -.r.DF.counterfactual_quantum -. 1e-6
                && r.DF.primal_over_dual <= proof_bound +. 1e-6
                && r.DF.ctilde_sum >= r.DF.algo_flow -. 1e-6);
            ])
        epss)
    (Sched_workload.Suite.all_flow ~n ~m);
  table

let weak_duality_table ~quick =
  let table =
    Table.create
      ~title:"E6b: weak duality — dual objective <= LP value <= 2 OPT (tiny instances)"
      ~columns:[ "n"; "m"; "eps"; "dual-obj"; "LP"; "2*OPT"; "ok" ]
  in
  let cases = if quick then [ (6, 2, 0.25, 11) ] else
    [ (6, 2, 0.25, 11); (7, 2, 0.25, 23); (7, 1, 0.5, 42); (8, 2, 1. /. 3., 77) ]
  in
  List.iter
    (fun (n, m, eps, seed) ->
      let inst = Sched_workload.Suite.tiny ~seed ~n ~m in
      let r = certify_on inst eps in
      let lp =
        match Sched_lp.Flow_lp.solve inst with
        | Some s -> s.Sched_lp.Flow_lp.lp_value
        | None -> Float.nan
      in
      let opt2 =
        match Sched_baselines.Brute_force.optimal_flow inst with
        | Some v -> 2. *. v
        | None -> Float.nan
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int m;
          Table.cell_float eps;
          Table.cell_float r.DF.dual_objective;
          Table.cell_float lp;
          Table.cell_float opt2;
          (* The discretized LP slightly underestimates the continuous LP,
             so allow proportional slack on the first inequality. *)
          Table.cell_bool
            (r.DF.dual_objective <= (lp *. 1.02) +. 1e-6 && lp <= opt2 +. 1e-6);
        ])
    cases;
  table

let energy_table ~quick =
  let module FE = Rejection.Flow_energy_reject in
  let module DFE = Sched_lp.Dual_fit_energy in
  let n = Exp_util.scale ~quick 60 and m = 2 in
  let table =
    Table.create ~title:"E6c: Theorem 2 dual-fitting certificate (Lemma 6)"
      ~columns:[ "alpha"; "eps"; "min-slack"; "checked"; "dual-obj"; "primal"; "primal/dual"; "ok" ]
  in
  let cases =
    if quick then [ (3., 0.25) ] else [ (2., 0.25); (3., 0.25); (3., 0.1); (2.5, 0.5) ]
  in
  List.iter
    (fun (alpha, eps) ->
      let gen = Sched_workload.Suite.weighted_energy ~n ~m ~alpha in
      let inst = Sched_workload.Gen.instance gen ~seed:42 in
      let trace = Sched_sim.Trace.create () in
      let schedule, st, live = Sched_sim.Driver.run ~trace (FE.policy (FE.config ~eps ())) inst in
      Exp_util.assert_audit (Exp_util.entry ~eps "flow-energy-reject") schedule live;
      let gammas = Array.init m (FE.gamma_of_machine st) in
      let r = DFE.certify ~eps ~gammas ~lambdas:(FE.lambdas st) inst trace schedule in
      Table.add_row table
        [
          Table.cell_float alpha;
          Table.cell_float eps;
          Printf.sprintf "%.2e" r.DFE.min_constraint_slack;
          Table.cell_int r.DFE.constraints_checked;
          Table.cell_float r.DFE.dual_objective;
          Table.cell_float r.DFE.primal;
          Table.cell_float r.DFE.primal_over_dual;
          Table.cell_bool (r.DFE.min_constraint_slack >= -1e-6 && r.DFE.dual_objective > 0.);
        ])
    cases;
  table

let run ~obs:_ ~quick = [ main_table ~quick; weak_duality_table ~quick; energy_table ~quick ]
