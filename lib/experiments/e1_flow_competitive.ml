open Sched_stats
module LB = Sched_baselines.Lower_bounds

let standard_table ~obs ~quick =
  let n = Exp_util.scale ~quick 150 and m = 4 in
  let table =
    Table.create ~title:"E1a: Theorem 1 on standard workloads (ratio vs volume LB)"
      ~columns:
        [ "workload"; "eps"; "ratio"; "ratio(compl)"; "rej%"; "budget%"; "bound"; "ok" ]
  in
  List.iter
    (fun gen ->
      List.iter
        (fun eps ->
          let per_seed =
            Exp_util.per_seed_obs ?obs ~quick (fun ~obs seed ->
                let inst = Sched_workload.Gen.instance gen ~seed in
                let schedule = Exp_util.run ?obs (Exp_util.entry ~eps "flow-reject") inst in
                let lb = (LB.volume inst).LB.value in
                let msr = Exp_util.measure_flow schedule in
                ( msr.Exp_util.total_flow /. lb,
                  msr.Exp_util.completed_flow /. lb,
                  msr.Exp_util.rejected_fraction ))
          in
          let ratio = Exp_util.mean (List.map (fun (r, _, _) -> r) per_seed) in
          let cratio = Exp_util.mean (List.map (fun (_, c, _) -> c) per_seed) in
          let rej = Exp_util.mean (List.map (fun (_, _, r) -> r) per_seed) in
          let bound = Rejection.Bounds.flow_competitive ~eps in
          let budget = Rejection.Bounds.flow_rejection_budget ~eps in
          Table.add_row table
            [
              gen.Sched_workload.Gen.name;
              Table.cell_float eps;
              Table.cell_float ratio;
              Table.cell_float cratio;
              Table.cell_float (100. *. rej);
              Table.cell_float (100. *. budget);
              Table.cell_float bound;
              Table.cell_bool (ratio <= bound && rej <= budget +. 1e-9);
            ])
        Exp_util.eps_grid)
    (Sched_workload.Suite.all_flow ~n ~m);
  table

let exact_table ~quick =
  let table =
    Table.create ~title:"E1b: Theorem 1 exact ratios on tiny instances (vs brute-force OPT)"
      ~columns:[ "n"; "m"; "eps"; "seed"; "alg"; "OPT"; "LP/2"; "ratio"; "bound"; "ok" ]
  in
  let cases = if quick then [ (6, 2, 0.25, 11) ] else
    [ (6, 2, 0.25, 11); (7, 2, 0.25, 23); (7, 2, 0.5, 23); (8, 3, 1. /. 3., 42); (8, 1, 0.25, 77) ]
  in
  List.iter
    (fun (n, m, eps, seed) ->
      let inst = Sched_workload.Suite.tiny ~seed ~n ~m in
      let schedule = Exp_util.run (Exp_util.entry ~eps "flow-reject") inst in
      let opt = Option.get (Sched_baselines.Brute_force.optimal_flow inst) in
      let lp =
        match Sched_lp.Flow_lp.solve inst with
        | Some s -> s.Sched_lp.Flow_lp.opt_lower_bound
        | None -> Float.nan
      in
      let alg = (Exp_util.measure_flow schedule).Exp_util.total_flow in
      let ratio = alg /. opt in
      let bound = Rejection.Bounds.flow_competitive ~eps in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int m;
          Table.cell_float eps;
          Table.cell_int seed;
          Table.cell_float alg;
          Table.cell_float opt;
          Table.cell_float lp;
          Table.cell_float ratio;
          Table.cell_float bound;
          Table.cell_bool (ratio <= bound);
        ])
    cases;
  table

(* Two-sided brackets: alg/OPT lies in [alg/UB, alg/LB] where UB is the
   local-search upper bound on OPT and LB the volume bound.  Tight brackets
   certify how much of the measured "ratio" is lower-bound looseness. *)
let bracket_table ~obs ~quick =
  let n = Exp_util.scale ~quick 120 and m = 3 in
  let eps = 0.25 in
  let table =
    Table.create
      ~title:"E1c: two-sided ratio brackets (alg/OPT in [alg/UB, alg/LB], eps=0.25)"
      ~columns:[ "workload"; "alg-flow"; "LB"; "LS-UB"; "ratio>="; "ratio<=" ]
  in
  List.iter
    (fun gen ->
      let stats =
        Exp_util.per_seed_obs ?obs ~quick (fun ~obs seed ->
            let inst = Sched_workload.Gen.instance gen ~seed in
            let schedule = Exp_util.run ?obs (Exp_util.entry ~eps "flow-reject") inst in
            let alg = (Exp_util.measure_flow schedule).Exp_util.total_flow in
            let lb = (LB.volume inst).LB.value in
            let ub = (Sched_baselines.Local_search.improve inst).Sched_baselines.Local_search.cost in
            (alg, lb, ub))
      in
      let mean f = Exp_util.mean (List.map f stats) in
      let alg = mean (fun (a, _, _) -> a)
      and lb = mean (fun (_, l, _) -> l)
      and ub = mean (fun (_, _, u) -> u) in
      Table.add_row table
        [
          gen.Sched_workload.Gen.name;
          Table.cell_float alg;
          Table.cell_float lb;
          Table.cell_float ub;
          Table.cell_float (alg /. ub);
          Table.cell_float (alg /. lb);
        ])
    (if quick then [ Sched_workload.Suite.flow_bimodal ~n ~m ]
     else
       [
         Sched_workload.Suite.flow_uniform ~n ~m;
         Sched_workload.Suite.flow_pareto ~n ~m;
         Sched_workload.Suite.flow_bimodal ~n ~m;
       ]);
  table

let run ~obs ~quick = [ standard_table ~obs ~quick; exact_table ~quick; bracket_table ~obs ~quick ]
