open Sched_stats
open Sched_model
module RS = Sched_baselines.Restart_spt

let run ~obs:_ ~quick =
  let n = Exp_util.scale ~quick 200 and m = 4 in
  let table =
    Table.create
      ~title:"E14: restart relaxation vs rejection (flow ratio vs volume LB; mean over seeds)"
      ~columns:
        [ "workload"; "policy"; "ratio"; "p99-flow"; "rej%"; "restarts"; "wasted-work%" ]
  in
  let workloads =
    if quick then [ Sched_workload.Suite.flow_bimodal ~n ~m ]
    else
      [
        Sched_workload.Suite.flow_bimodal ~n ~m;
        Sched_workload.Suite.flow_pareto ~n ~m;
        Sched_workload.Suite.flow_uniform ~n ~m;
      ]
  in
  let no_restarts entry inst = (Exp_util.run entry inst, 0, 0.) in
  (* The restart count lives in the policy state, so this run goes
     through the driver itself and is audited against the registry's
     restart-spt entry. *)
  let restart_spt inst =
    let s, st, live = Sched_sim.Driver.run (RS.policy (RS.config ())) inst in
    Exp_util.assert_audit (Exp_util.entry ~eps:0.2 "restart-spt") s live;
    (s, RS.restarts st, RS.wasted_work s)
  in
  let policies =
    [
      ("thm1-reject(0.2)", no_restarts (Exp_util.entry ~eps:0.2 "flow-reject"));
      ("restart-spt", restart_spt);
      ("no relaxation", no_restarts (Exp_util.flow_reject_no_rules ~eps:0.2));
    ]
  in
  List.iter
    (fun gen ->
      List.iter
        (fun (name, runner) ->
          let stats =
            Exp_util.per_seed ~quick (fun seed ->
                let inst = Sched_workload.Gen.instance gen ~seed in
                let s, restarts, wasted = runner inst in
                let lb =
                  (Sched_baselines.Lower_bounds.volume inst).Sched_baselines.Lower_bounds.value
                in
                let f = Metrics.flow s in
                let values = Metrics.flow_values s in
                let p99 = (Summary.of_array values).Summary.p99 in
                let total_volume = Instance.total_min_volume inst in
                ( f.Metrics.total_with_rejected /. lb,
                  p99,
                  (Metrics.rejection s).Metrics.fraction,
                  float_of_int restarts,
                  wasted /. total_volume ))
          in
          let mean f = Exp_util.mean (List.map f stats) in
          Table.add_row table
            [
              gen.Sched_workload.Gen.name;
              name;
              Table.cell_float (mean (fun (a, _, _, _, _) -> a));
              Table.cell_float (mean (fun (_, a, _, _, _) -> a));
              Table.cell_float (100. *. mean (fun (_, _, a, _, _) -> a));
              Table.cell_float (mean (fun (_, _, _, a, _) -> a));
              Table.cell_float (100. *. mean (fun (_, _, _, _, a) -> a));
            ])
        policies)
    workloads;
  [ table ]
