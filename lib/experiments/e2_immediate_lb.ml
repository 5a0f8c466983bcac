open Sched_stats
module AF = Sched_workload.Adversary_flow

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
      let ratio name = ratio_of ~run:(Exp_util.run (Exp_util.entry ~eps name)) ~l in
      Table.add_row table
        [
          Table.cell_float l;
          Table.cell_float (l *. l);
          Table.cell_float l;
          Table.cell_float (ratio "immediate-never");
          Table.cell_float (ratio "immediate-load");
          Table.cell_float (ratio "immediate-largest");
          Table.cell_float (ratio "flow-reject");
          (* Rule 1 (mid-run revocation) alone suffices against this
             adversary: the blocking elephant is the running job. *)
          Table.cell_float (ratio "flow-reject-rule1");
        ])
    ls;
  [ table ]
