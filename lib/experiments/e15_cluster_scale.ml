open Sched_stats
open Sched_sim
module LB = Sched_baselines.Lower_bounds
module FR = Rejection.Flow_reject

(* E15: flow-reject at cluster scale.  One instance per point (no seed
   replication — the instances are the cost), run through [Driver.run];
   the table reports the empirical ratio against the volume lower bound
   and the rejection fraction.  Throughput (events/sec, GC pressure) for
   these shapes lives in the bench harness, not here: experiment tables
   stay deterministic. *)

let eps = 0.25

let points ~quick =
  if quick then [ ("uniform", 2_000, 20); ("pareto", 1_000, 16) ]
  else [ ("uniform", 20_000, 64); ("uniform", 50_000, 128); ("pareto", 20_000, 48) ]

let gen name ~n ~m =
  match name with
  | "pareto" -> Sched_workload.Suite.flow_pareto ~n ~m
  | _ -> Sched_workload.Suite.flow_uniform ~n ~m

let run ~obs:_ ~quick =
  let table =
    Table.create
      ~title:(Printf.sprintf "E15: cluster-scale runs (flow-reject, eps=%.2f)" eps)
      ~columns:[ "workload"; "n"; "m"; "ratio"; "ratio(compl)"; "rej%" ]
  in
  List.iter
    (fun (name, n, m) ->
      let inst = Sched_workload.Gen.instance (gen name ~n ~m) ~seed:11 in
      let lb = (LB.volume inst).LB.value in
      let _, _, live = Driver.run (FR.policy (FR.config ~eps ())) inst in
      let open Sched_model in
      Table.add_row table
        [
          name;
          Table.cell_int n;
          Table.cell_int m;
          Table.cell_float (live.Driver.flow.Metrics.total_with_rejected /. lb);
          Table.cell_float (live.Driver.flow.Metrics.total /. lb);
          Table.cell_float (100. *. live.Driver.rejection.Metrics.fraction);
        ])
    (points ~quick);
  table

let run ~obs ~quick = [ run ~obs ~quick ]
