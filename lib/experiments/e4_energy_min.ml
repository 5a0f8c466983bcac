open Sched_stats
module EG = Rejection.Energy_config_greedy

let main_table ~quick =
  let n = Exp_util.scale ~quick 40 in
  let table =
    Table.create ~title:"E4a: Theorem 3 greedy vs lower bounds"
      ~columns:
        [ "m"; "n"; "alpha"; "greedy"; "LB"; "LB-src"; "ratio"; "bound"; "ok"; "avr(m=1)"; "oa(m=1)" ]
  in
  (* The (m=2, n=12) rows use the exact assignment+YDS lower bound, which
     is far tighter than the per-job convexity bound available at n=40. *)
  let cases =
    if quick then [ (1, 3., n); (2, 3., 12) ]
    else [ (1, 2., n); (1, 3., n); (2, 2., n); (2, 3., n); (2, 2., 12); (2, 3., 12) ]
  in
  List.iter
    (fun (m, alpha, n) ->
      List.iter
        (fun alpha ->
          let gen = Sched_workload.Suite.deadline_energy ~n ~m ~alpha in
          let energies = ref [] and lbs = ref [] and avrs = ref [] and oas = ref [] in
          let src = ref "" in
          List.iter
            (fun seed ->
              let inst = Sched_workload.Gen.instance gen ~seed in
              let result = EG.run inst in
              (match
                 Sched_check.Oracle.check
                   ~mode:(Sched_model.Validator.mode ~allow_parallel:true ())
                   result.EG.schedule
               with
              | [] -> ()
              | vs -> failwith ("E4 config greedy: " ^ Sched_check.Oracle.report vs));
              let lb, s = Sched_energy.Energy_bounds.best_deadline_energy inst in
              src := s;
              energies := result.EG.energy :: !energies;
              lbs := lb :: !lbs;
              if m = 1 then begin
                let jobs = Sched_energy.Yds.of_instance inst ~machine:0 in
                avrs := Sched_energy.Avr.energy ~alpha jobs :: !avrs;
                oas := Sched_energy.Oa.energy ~alpha jobs :: !oas
              end)
            (Exp_util.seeds ~quick);
          let energy = Exp_util.mean !energies and lb = Exp_util.mean !lbs in
          let ratio = energy /. lb in
          let bound = Rejection.Bounds.energy_competitive ~alpha in
          Table.add_row table
            [
              Table.cell_int m;
              Table.cell_int n;
              Table.cell_float alpha;
              Table.cell_float energy;
              Table.cell_float lb;
              !src;
              Table.cell_float ratio;
              Table.cell_float bound;
              Table.cell_bool (ratio <= bound +. 1e-9);
              (if m = 1 then Table.cell_float (Exp_util.mean !avrs) else "-");
              (if m = 1 then Table.cell_float (Exp_util.mean !oas) else "-");
            ])
        [ alpha ])
    cases;
  table

(* Discretization ablation: restrict the greedy to a geometric speed grid
   of k speeds and measure the energy inflation vs the grid-free greedy —
   quantifies the "lose only a factor (1+eps)" discretization remark of the
   paper's Section 4. *)
let grid_table ~quick =
  let n = Exp_util.scale ~quick 30 in
  let alpha = 3. in
  let table =
    Table.create ~title:"E4c: speed-grid discretization ablation (energy vs grid-free greedy)"
      ~columns:[ "grid"; "energy"; "vs grid-free"; "yds-LB" ]
  in
  let gen = Sched_workload.Suite.deadline_energy ~n ~m:1 ~alpha in
  let seeds = Exp_util.seeds ~quick in
  let free = ref [] and lbs = ref [] in
  List.iter
    (fun seed ->
      let inst = Sched_workload.Gen.instance gen ~seed in
      free := (EG.run inst).EG.energy :: !free;
      lbs := fst (Sched_energy.Energy_bounds.best_deadline_energy inst) :: !lbs)
    seeds;
  let free_energy = Exp_util.mean !free in
  Table.add_row table
    [ "all durations"; Table.cell_float free_energy; "1.000"; Table.cell_float (Exp_util.mean !lbs) ];
  List.iter
    (fun k ->
      (* Geometric grid from 1/8 to 8 with k points. *)
      let speeds =
        Array.init k (fun i ->
            0.125 *. (64. ** (float_of_int i /. float_of_int (max 1 (k - 1)))))
      in
      let energies = ref [] in
      List.iter
        (fun seed ->
          let inst = Sched_workload.Gen.instance gen ~seed in
          energies := (EG.run ~speeds inst).EG.energy :: !energies)
        seeds;
      let energy = Exp_util.mean !energies in
      Table.add_row table
        [
          Printf.sprintf "%d speeds" k;
          Table.cell_float energy;
          Table.cell_float (energy /. free_energy);
          "-";
        ])
    (if quick then [ 4 ] else [ 2; 4; 8; 16 ]);
  table

let laxity_table ~quick =
  let n = Exp_util.scale ~quick 30 in
  let table =
    Table.create ~title:"E4b: laxity sweep (tight deadlines force high speeds)"
      ~columns:[ "max-slots"; "greedy"; "yds-LB"; "ratio"; "bound" ]
  in
  let alpha = 3. in
  List.iter
    (fun max_slots ->
      let gen =
        Sched_workload.Gen.make ~name:"laxity"
          ~arrivals:(Sched_workload.Gen.Poisson 0.5)
          ~sizes:(Sched_stats.Dist.uniform ~lo:1. ~hi:4.)
          ~deadlines:(Sched_workload.Gen.Slot_laxity { min_slots = 2; max_slots })
          ~alpha ~n ~m:1 ()
      in
      let energies = ref [] and lbs = ref [] in
      List.iter
        (fun seed ->
          let inst = Sched_workload.Gen.instance gen ~seed in
          let result = EG.run inst in
          let lb, _ = Sched_energy.Energy_bounds.best_deadline_energy inst in
          energies := result.EG.energy :: !energies;
          lbs := lb :: !lbs)
        (Exp_util.seeds ~quick);
      let energy = Exp_util.mean !energies and lb = Exp_util.mean !lbs in
      Table.add_row table
        [
          Table.cell_int max_slots;
          Table.cell_float energy;
          Table.cell_float lb;
          Table.cell_float (energy /. lb);
          Table.cell_float (Rejection.Bounds.energy_competitive ~alpha);
        ])
    (if quick then [ 4; 16 ] else [ 3; 4; 8; 16; 32 ]);
  table

let run ~obs:_ ~quick = [ main_table ~quick; laxity_table ~quick; grid_table ~quick ]
