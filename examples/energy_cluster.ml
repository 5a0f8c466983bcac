(* Speed-scaled cluster: both energy objectives of the paper on one
   workload family.

   Part 1 (Section 3 / Theorem 2): weighted flow-time plus energy — the
   scheduler picks per-execution speeds gamma * W^(1/alpha) and rejects a
   bounded weight fraction.

   Part 2 (Section 4 / Theorem 3): hard-deadline energy minimization — the
   configuration-LP greedy against the YDS preemptive optimum and the AVR
   online heuristic.

   Run with: dune exec examples/energy_cluster.exe *)

open Sched_model
open Sched_stats
module Gen = Sched_workload.Gen
module Suite = Sched_workload.Suite

let () =
  (* Part 1: flow + energy across the cube-law range of alpha. *)
  let t1 =
    Table.create ~title:"Theorem 2: weighted flow-time + energy (n=120, m=4, eps=0.25)"
      ~columns:[ "alpha"; "gamma"; "wflow"; "energy"; "objective"; "LB"; "ratio"; "rej-w%" ]
  in
  List.iter
    (fun alpha ->
      let gen = Suite.weighted_energy ~n:120 ~m:4 ~alpha in
      let inst = Gen.instance gen ~seed:42 in
      (* The driver returns the policy's final state, which holds the
         per-machine speed constant gamma; the run is audited against
         the policy-registry entry of the same policy. *)
      let module FER = Rejection.Flow_energy_reject in
      let module E = Sched_experiments.Exp_util in
      let s, st, live = Sched_sim.Driver.run (FER.policy (FER.config ~eps:0.25 ())) inst in
      E.assert_audit (E.entry ~eps:0.25 "flow-energy-reject") s live;
      let f = Metrics.flow s in
      let e = Metrics.energy s in
      let obj = f.Metrics.weighted_with_rejected +. e in
      let lb = Sched_energy.Energy_bounds.flow_energy_lb inst in
      Table.add_row t1
        [
          Table.cell_float alpha;
          Table.cell_float (FER.gamma_of_machine st 0);
          Table.cell_float f.Metrics.weighted;
          Table.cell_float e;
          Table.cell_float obj;
          Table.cell_float lb;
          Table.cell_float (obj /. lb);
          Table.cell_float (100. *. (Metrics.rejection s).Metrics.weight_fraction);
        ])
    [ 1.8; 2.; 2.5; 3. ];
  Table.print t1;

  (* Part 2: deadline energy minimization on a single speed-scaled CPU. *)
  let t2 =
    Table.create ~title:"Theorem 3: deadline energy minimization (n=40, m=1, alpha=3)"
      ~columns:[ "seed"; "greedy"; "yds-opt(preemptive)"; "avr(online)"; "greedy/yds"; "avr/yds" ]
  in
  List.iter
    (fun seed ->
      let gen = Suite.deadline_energy ~n:40 ~m:1 ~alpha:3. in
      let inst = Gen.instance gen ~seed in
      let result = Rejection.Energy_config_greedy.run inst in
      let jobs = Sched_energy.Yds.of_instance inst ~machine:0 in
      let yds = Sched_energy.Yds.optimal_energy ~alpha:3. jobs in
      let avr = Sched_energy.Avr.energy ~alpha:3. jobs in
      Table.add_row t2
        [
          Table.cell_int seed;
          Table.cell_float result.Rejection.Energy_config_greedy.energy;
          Table.cell_float yds;
          Table.cell_float avr;
          Table.cell_float (result.Rejection.Energy_config_greedy.energy /. yds);
          Table.cell_float (avr /. yds);
        ])
    [ 1; 2; 3; 4; 5 ];
  Table.print t2;
  print_endline
    "YDS is the preemptive offline optimum (a lower bound for the non-preemptive\n\
     problem); alpha^alpha = 27 is Theorem 3's guarantee.  The non-preemptive greedy\n\
     typically lands within a small factor of YDS, comparable to the preemptive AVR."
