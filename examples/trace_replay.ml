(* Trace replay: run every scheduler on a cluster trace in the Standard
   Workload Format (the Parallel Workloads Archive interchange format) and
   bracket the true competitive ratio with the local-search OPT upper
   bound.

   No real traces ship in this sealed build, so we use the bundled example
   snippet; point [Swf.load ~path] at any PWA trace to reproduce on real
   data.

   Run with: dune exec examples/trace_replay.exe *)

open Sched_model
open Sched_stats

let () =
  let inst =
    match Sched_workload.Swf.parse ~m:2 Sched_workload.Swf.example with
    | Ok inst -> inst
    | Error msg -> failwith msg
  in
  Format.printf "imported: %a@.@." Instance.pp_stats inst;
  let table =
    Table.create ~title:"SWF trace replay (8 jobs, 2 machines)"
      ~columns:[ "policy"; "flow"; "max-flow"; "rejected" ]
  in
  let run name schedule =
    Schedule.assert_valid ~check_deadlines:false schedule;
    let f = Metrics.flow schedule in
    Table.add_row table
      [
        name;
        Table.cell_float f.Metrics.total_with_rejected;
        Table.cell_float f.Metrics.max_flow;
        Table.cell_int (Metrics.rejection schedule).Metrics.count;
      ];
    schedule
  in
  let schedule_of policy =
    let s, _, _ = Sched_sim.Driver.run policy inst in
    s
  in
  let fifo = run "greedy-fifo" (schedule_of Sched_baselines.Greedy_dispatch.fifo) in
  let _spt = run "greedy-spt" (schedule_of Sched_baselines.Greedy_dispatch.spt) in
  let rej =
    run "thm1 eps=0.25"
      (fst (Rejection.Flow_reject.run (Rejection.Flow_reject.config ~eps:0.25 ()) inst))
  in
  Table.print table;
  (* Bracket the optimum. *)
  let lb = Sched_baselines.Lower_bounds.best_flow inst in
  let ls = Sched_baselines.Local_search.improve inst in
  Printf.printf "OPT bracket: [%.1f (%s), %.1f (local search)]\n"
    lb.Sched_baselines.Lower_bounds.value lb.Sched_baselines.Lower_bounds.source
    ls.Sched_baselines.Local_search.cost;
  let alg = (Metrics.flow rej).Metrics.total_with_rejected in
  Printf.printf "thm1 ratio in [%.3f, %.3f]\n" (alg /. ls.Sched_baselines.Local_search.cost)
    (alg /. lb.Sched_baselines.Lower_bounds.value);
  print_newline ();
  print_endline "Schedules (greedy-fifo above, thm1 below):";
  print_string (Gantt.render ~width:64 fifo);
  print_string (Gantt.render ~width:64 rej)
