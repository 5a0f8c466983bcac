open Sched_stats
module AF = Sched_workload.Adversary_flow
module IR = Sched_baselines.Immediate_reject
module FR = Rejection.Flow_reject

let eps = 0.2

let ratio_of ~run ~l =
  let result, schedule = AF.run_two_phase ~run ~eps ~l in
  (Sched_model.Metrics.flow schedule).Sched_model.Metrics.total_with_rejected
  /. result.AF.adversary_cost

let run ~obs:_ ~quick =
  let ls = if quick then [ 4.; 8.; 16. ] else [ 4.; 8.; 16.; 32.; 64. ] in
  let table =
    Table.create
      ~title:
        "E2: Lemma 1 adversary (ratio vs adversary's schedule; immediate policies blow up, \
         Theorem 1 stays flat)"
      ~columns:
        [
          "L"; "delta"; "sqrt(delta)"; "imm-never"; "imm-load"; "imm-largest"; "thm1-reject";
          "thm1-rule1-only";
        ]
  in
  List.iter
    (fun l ->
      let imm h i =
        let s, _, _ = Sched_sim.Driver.run (IR.policy ~eps h) i in
        s
      in
      let rej i = fst (FR.run (FR.config ~eps ()) i) in
      (* Rule 1 (mid-run revocation) alone suffices against this adversary:
         the blocking elephant is the running job. *)
      let rej1 i = fst (FR.run (FR.config ~eps ~rule2:false ()) i) in
      Table.add_row table
        [
          Table.cell_float l;
          Table.cell_float (l *. l);
          Table.cell_float l;
          Table.cell_float (ratio_of ~run:(imm IR.Never) ~l);
          Table.cell_float (ratio_of ~run:(imm (IR.Load_threshold 3.)) ~l);
          Table.cell_float (ratio_of ~run:(imm (IR.Largest_over 2.)) ~l);
          Table.cell_float (ratio_of ~run:rej ~l);
          Table.cell_float (ratio_of ~run:rej1 ~l);
        ])
    ls;
  [ table ]
