(* Datacenter-style workload: heavy-tailed job sizes (bounded Pareto) on
   unrelated machines — the scenario the paper's introduction motivates,
   where a few elephant jobs ruin every non-preemptive queue unless the
   scheduler can revoke its decisions.

   Compares the paper's Theorem 1 algorithm against non-rejecting greedies
   and an immediate-rejection policy, across load levels.

   Run with: dune exec examples/datacenter_flow.exe *)

open Sched_model
open Sched_stats
module Gen = Sched_workload.Gen
module Shape = Sched_workload.Shape

let n = 400
let m = 8

(* Runs the policy-registry entry of that name at [eps] and audits the
   run: a valid schedule within the entry's rejection budget, or a
   [Failure] naming the violations. *)
let run ?(eps = 0.2) name inst =
  let module E = Sched_experiments.Exp_util in
  E.run (E.entry ~eps name) inst

let () =
  let table =
    Table.create ~title:"Heavy-tailed datacenter workload: total flow-time (mean of 3 seeds)"
      ~columns:
        [ "load"; "policy"; "flow"; "flow/LB"; "p-max flow"; "rejected%" ]
  in
  List.iter
    (fun load ->
      let gen =
        Gen.make ~name:"datacenter"
          ~arrivals:(Gen.Poisson (load *. float_of_int m /. 4.))
          (* mean size ~ 4 *)
          ~sizes:(Dist.bounded_pareto ~shape:1.4 ~lo:1. ~hi:200.)
          ~shape:(Shape.unrelated ~spread:2.) ~n ~m ()
      in
      let policies =
        [
          ("greedy-fifo", run "greedy-fifo");
          ("greedy-spt", run "greedy-spt");
          ("immediate-reject", run ~eps:0.4 "immediate-largest");
          ("thm1 eps=0.2", run ~eps:0.2 "flow-reject");
        ]
      in
      List.iter
        (fun (name, runner) ->
          let flows = ref [] and ratios = ref [] and maxes = ref [] and rejs = ref [] in
          List.iter
            (fun seed ->
              let inst = Gen.instance gen ~seed in
              let s = runner inst in
              let f = Metrics.flow s in
              let lb =
                (Sched_baselines.Lower_bounds.volume inst).Sched_baselines.Lower_bounds.value
              in
              flows := f.Metrics.total_with_rejected :: !flows;
              ratios := (f.Metrics.total_with_rejected /. lb) :: !ratios;
              maxes := f.Metrics.max_flow :: !maxes;
              rejs := (Metrics.rejection s).Metrics.fraction :: !rejs)
            [ 3; 5; 7 ];
          let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
          Table.add_row table
            [
              Printf.sprintf "%.0f%%" (100. *. load);
              name;
              Table.cell_float (mean !flows);
              Table.cell_float (mean !ratios);
              Table.cell_float (mean !maxes);
              Table.cell_float (100. *. mean !rejs);
            ])
        policies)
    [ 0.5; 0.8; 0.95 ];
  Table.print table;
  print_endline
    "Note: 'flow/LB' is measured against the volume lower bound, so values are upper\n\
     bounds on the true competitive ratio.  The rejection-based scheduler keeps both\n\
     the total and the worst-case ('p-max flow') down as load approaches saturation\n\
     by revoking a bounded fraction of elephants mid-run.\n";
  (* Flow-time distribution at the highest load: greedy-SPT vs rejection. *)
  let gen =
    Gen.make ~name:"datacenter"
      ~arrivals:(Gen.Poisson (0.95 *. float_of_int m /. 4.))
      ~sizes:(Dist.bounded_pareto ~shape:1.4 ~lo:1. ~hi:200.)
      ~shape:(Shape.unrelated ~spread:2.) ~n ~m ()
  in
  let inst = Gen.instance gen ~seed:3 in
  let spt = run "greedy-spt" inst in
  let rej = run ~eps:0.2 "flow-reject" inst in
  print_endline "Flow-time distribution at 95% load (log-scale bins):";
  print_endline "- greedy-spt:";
  print_string (Histogram.render ~width:40 (Histogram.log_bins (Sched_model.Metrics.flow_values spt)));
  print_endline "- thm1 eps=0.2:";
  print_string (Histogram.render ~width:40 (Histogram.log_bins (Sched_model.Metrics.flow_values rej)))
