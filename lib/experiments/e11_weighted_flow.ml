open Sched_stats
open Sched_model
module FRW = Rejection.Flow_reject_weighted

(* Weighted volume bound: every job's weighted flow is at least
   w_j min_i p_ij. *)
let weighted_volume_lb inst =
  Array.fold_left
    (fun acc (j : Job.t) -> acc +. (j.Job.weight *. Job.min_size j))
    0.
    (Instance.jobs_by_release inst)

let run ~obs:_ ~quick =
  let n = Exp_util.scale ~quick 150 and m = 4 in
  let epss = if quick then [ 0.25 ] else [ 0.1; 0.25; 0.5 ] in
  let table =
    Table.create
      ~title:"E11: weighted flow-time extension (ratio vs weighted volume LB)"
      ~columns:
        [ "eps"; "policy"; "wflow"; "ratio"; "rejw%"; "budget%"; "budget-ok" ]
  in
  let gen =
    Sched_workload.Gen.make ~name:"weighted-pareto"
      ~sizes:(Dist.bounded_pareto ~shape:1.5 ~lo:1. ~hi:100.)
      ~weights:(Dist.bounded_pareto ~shape:1.8 ~lo:1. ~hi:20.)
      ~shape:(Sched_workload.Shape.unrelated ~spread:2.) ~n ~m ()
  in
  List.iter
    (fun eps ->
      let hdf =
        Policy_registry.pack
          (fun () -> FRW.policy (FRW.config ~eps ~rule1:false ~rule2:false ()))
          ~budget:(Sched_check.Oracle.Count_fraction 0.) "hdf-no-reject"
      in
      let policies =
        [
          ("weighted-reject", Exp_util.entry ~eps "flow-reject-weighted");
          ("hdf-no-reject", hdf);
          ("thm1-unweighted", Exp_util.entry ~eps "flow-reject");
        ]
      in
      List.iter
        (fun (name, entry) ->
          let ratios = ref [] and rejws = ref [] and wflows = ref [] in
          List.iter
            (fun seed ->
              let inst = Sched_workload.Gen.instance gen ~seed in
              let s = Exp_util.run entry inst in
              let f = Metrics.flow s in
              let lb = weighted_volume_lb inst in
              ratios := (f.Metrics.weighted_with_rejected /. lb) :: !ratios;
              rejws := (Metrics.rejection s).Metrics.weight_fraction :: !rejws;
              wflows := f.Metrics.weighted_with_rejected :: !wflows)
            (Exp_util.seeds ~quick);
          let rejw = Exp_util.mean !rejws in
          Table.add_row table
            [
              Table.cell_float eps;
              name;
              Table.cell_float (Exp_util.mean !wflows);
              Table.cell_float (Exp_util.mean !ratios);
              Table.cell_float (100. *. rejw);
              Table.cell_float (100. *. 2. *. eps);
              Table.cell_bool (rejw <= (2. *. eps) +. 1e-9);
            ])
        policies)
    epss;
  [ table ]
