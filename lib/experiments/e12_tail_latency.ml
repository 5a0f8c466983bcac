open Sched_stats
open Sched_model

let run ~obs:_ ~quick =
  let n = Exp_util.scale ~quick 300 and m = 4 in
  let eps = 0.2 in
  let table =
    Table.create ~title:"E12: tail flow-time (completed jobs; mean over seeds)"
      ~columns:[ "workload"; "policy"; "p50"; "p90"; "p99"; "max"; "rej%" ]
  in
  (* A near-saturation elephant workload, where tail effects dominate. *)
  let elephant =
    Sched_workload.Gen.make ~name:"elephant-storm"
      ~arrivals:(Sched_workload.Gen.Batched { every = 8.; size = 3 * m })
      ~sizes:(Dist.bimodal ~lo:1. ~hi:60. ~p_hi:0.12)
      ~shape:Sched_workload.Shape.identical ~n ~m ()
  in
  let workloads =
    if quick then [ elephant ]
    else
      [
        elephant;
        Sched_workload.Suite.flow_pareto ~n ~m;
        Sched_workload.Suite.flow_diurnal ~n ~m;
      ]
  in
  let policies =
    [
      ("thm1-reject", Exp_util.entry ~eps "flow-reject");
      ("greedy-spt", Exp_util.entry ~eps "greedy-spt");
      ("greedy-fifo", Exp_util.entry ~eps "greedy-fifo");
      ("immediate", Exp_util.entry ~eps "immediate-largest");
    ]
  in
  List.iter
    (fun gen ->
      List.iter
        (fun (name, entry) ->
          let stats =
            Exp_util.per_seed ~quick (fun seed ->
                let inst = Sched_workload.Gen.instance gen ~seed in
                let s = Exp_util.run entry inst in
                let values = Metrics.flow_values s in
                let summary = Summary.of_array values in
                ( summary.Summary.p50,
                  summary.Summary.p90,
                  summary.Summary.p99,
                  summary.Summary.max,
                  (Metrics.rejection s).Metrics.fraction ))
          in
          let mean f = Exp_util.mean (List.map f stats) in
          Table.add_row table
            [
              gen.Sched_workload.Gen.name;
              name;
              Table.cell_float (mean (fun (a, _, _, _, _) -> a));
              Table.cell_float (mean (fun (_, a, _, _, _) -> a));
              Table.cell_float (mean (fun (_, _, a, _, _) -> a));
              Table.cell_float (mean (fun (_, _, _, a, _) -> a));
              Table.cell_float (100. *. mean (fun (_, _, _, _, a) -> a));
            ])
        policies)
    workloads;
  [ table ]
