open Sched_stats
open Sched_model

let run ~obs:_ ~quick =
  let n = Exp_util.scale ~quick 100 and m = 3 in
  let alphas = if quick then [ 2.; 3. ] else [ 1.8; 2.; 2.5; 3. ] in
  let epss = if quick then [ 0.25 ] else [ 0.1; 0.25; 0.5 ] in
  let table =
    Table.create ~title:"E3: Theorem 2 weighted flow+energy (ratio vs per-job LB)"
      ~columns:
        [ "alpha"; "eps"; "wflow"; "energy"; "ratio"; "rejw%"; "budget%"; "bound"; "ok" ]
  in
  List.iter
    (fun alpha ->
      let gen = Sched_workload.Suite.weighted_energy ~n ~m ~alpha in
      List.iter
        (fun eps ->
          let ratios = ref [] and rejws = ref [] and wflows = ref [] and energies = ref [] in
          List.iter
            (fun seed ->
              let inst = Sched_workload.Gen.instance gen ~seed in
              let schedule = Exp_util.run (Exp_util.entry ~eps "flow-energy-reject") inst in
              let f = Metrics.flow schedule in
              let e = Metrics.energy schedule in
              let lb = Sched_energy.Energy_bounds.flow_energy_lb inst in
              (* Objective including the weighted flow of rejected jobs up
                 to their rejection, as in the paper's accounting. *)
              let obj = f.Metrics.weighted_with_rejected +. e in
              ratios := (obj /. lb) :: !ratios;
              rejws := (Metrics.rejection schedule).Metrics.weight_fraction :: !rejws;
              wflows := f.Metrics.weighted :: !wflows;
              energies := e :: !energies)
            (Exp_util.seeds ~quick);
          let ratio = Exp_util.mean !ratios and rejw = Exp_util.mean !rejws in
          let bound = Rejection.Bounds.flow_energy_competitive ~eps ~alpha in
          Table.add_row table
            [
              Table.cell_float alpha;
              Table.cell_float eps;
              Table.cell_float (Exp_util.mean !wflows);
              Table.cell_float (Exp_util.mean !energies);
              Table.cell_float ratio;
              Table.cell_float (100. *. rejw);
              Table.cell_float (100. *. eps);
              Table.cell_float bound;
              Table.cell_bool (ratio <= bound && rejw <= eps +. 1e-9);
            ])
        epss)
    alphas;
  [ table ]
