open Sched_stats

let eps = 0.25

let run ~obs:_ ~quick =
  let n = Exp_util.scale ~quick 150 and m = 4 in
  let workloads =
    if quick then [ Sched_workload.Suite.flow_bimodal ~n ~m ]
    else
      [
        Sched_workload.Suite.flow_uniform ~n ~m;
        Sched_workload.Suite.flow_pareto ~n ~m;
        Sched_workload.Suite.flow_bimodal ~n ~m;
      ]
  in
  let table =
    Table.create ~title:"E8: ablation of Theorem 1 (mean ratio vs volume LB)"
      ~columns:[ "workload"; "variant"; "ratio"; "max-flow"; "rej%" ]
  in
  let variants =
    [
      ("both rules", Exp_util.entry ~eps "flow-reject");
      ("rule1 only", Exp_util.entry ~eps "flow-reject-rule1");
      ("rule2 only", Exp_util.entry ~eps "flow-reject-rule2");
      ("no rejection", Exp_util.flow_reject_no_rules ~eps);
      ("greedy dispatch", Exp_util.entry ~eps "flow-reject-greedy");
      ("baseline fifo", Exp_util.entry ~eps "greedy-fifo");
    ]
  in
  List.iter
    (fun gen ->
      List.iter
        (fun (label, entry) ->
          let ratios = ref [] and rejs = ref [] and maxf = ref [] in
          List.iter
            (fun seed ->
              let inst = Sched_workload.Gen.instance gen ~seed in
              let schedule = Exp_util.run entry inst in
              let lb = (Sched_baselines.Lower_bounds.volume inst).Sched_baselines.Lower_bounds.value in
              let msr = Exp_util.measure_flow schedule in
              ratios := (msr.Exp_util.total_flow /. lb) :: !ratios;
              rejs := msr.Exp_util.rejected_fraction :: !rejs;
              maxf := msr.Exp_util.max_flow :: !maxf)
            (Exp_util.seeds ~quick);
          Table.add_row table
            [
              gen.Sched_workload.Gen.name;
              label;
              Table.cell_float (Exp_util.mean !ratios);
              Table.cell_float (Exp_util.mean !maxf);
              Table.cell_float (100. *. Exp_util.mean !rejs);
            ])
        variants)
    workloads;
  [ table ]
