open Sched_stats
open Sched_model
module SA = Sched_baselines.Speed_augmented

let run ~obs:_ ~quick =
  let n = Exp_util.scale ~quick 150 and m = 4 in
  let eps_r = 0.2 in
  (* The registry's speed-augmented entry runs at eps_s = 0.5; the other
     two speeds are packed here on their own fleets. *)
  let esa eps_s =
    if eps_s = 0.5 then Exp_util.entry ~eps:eps_r "speed-augmented"
    else
      Policy_registry.pack
        (fun () -> SA.policy ~eps_r)
        ~fleet:(SA.fleet ~eps_s)
        ~budget:(Sched_check.Oracle.Count_fraction eps_r)
        (Printf.sprintf "speed-augmented(%g)" eps_s)
  in
  let table =
    Table.create
      ~title:
        "E9: relaxation power — rejection only (Thm 1) vs speed augmentation (ESA'16) vs \
         machine augmentation"
      ~columns:
        [
          "workload"; "thm1-ratio"; "thm1-rej%"; "esa(+0.2)"; "esa(+0.5)"; "esa(+1.0)";
          "esa-rej%"; "maug(x2)"; "maug(x4)";
        ]
  in
  List.iter
    (fun gen ->
      let acc = Hashtbl.create 8 in
      let push (k, v) =
        Hashtbl.replace acc k (v :: (Option.value ~default:[] (Hashtbl.find_opt acc k)))
      in
      (* All algorithms for one seed run in one parallel task. *)
      Exp_util.per_seed ~quick (fun seed ->
          let inst = Sched_workload.Gen.instance gen ~seed in
          let lb = (Sched_baselines.Lower_bounds.volume inst).Sched_baselines.Lower_bounds.value in
          let ratio s = (Metrics.flow s).Metrics.total_with_rejected /. lb in
          let thm1 = Exp_util.run (Exp_util.entry ~eps:eps_r "flow-reject") inst in
          [ ("thm1", ratio thm1); ("thm1rej", (Metrics.rejection thm1).Metrics.fraction) ]
          @ List.concat_map
              (fun eps_s ->
                let s = Exp_util.run (esa eps_s) inst in
                (Printf.sprintf "esa%.1f" eps_s, ratio s)
                ::
                (if eps_s = 0.5 then [ ("esarej", (Metrics.rejection s).Metrics.fraction) ]
                 else []))
              [ 0.2; 0.5; 1.0 ]
          @ List.map
              (fun factor ->
                let s =
                  Exp_util.run (Exp_util.entry ~eps:eps_r "greedy-spt")
                    (Sched_baselines.Machine_augmented.augment ~factor inst)
                in
                (Printf.sprintf "maug%d" factor, ratio s))
              [ 2; 4 ])
      |> List.iter (List.iter push);
      let mean k = Exp_util.mean (Hashtbl.find acc k) in
      Table.add_row table
        [
          gen.Sched_workload.Gen.name;
          Table.cell_float (mean "thm1");
          Table.cell_float (100. *. mean "thm1rej");
          Table.cell_float (mean "esa0.2");
          Table.cell_float (mean "esa0.5");
          Table.cell_float (mean "esa1.0");
          Table.cell_float (100. *. mean "esarej");
          Table.cell_float (mean "maug2");
          Table.cell_float (mean "maug4");
        ])
    (Sched_workload.Suite.all_flow ~n ~m);
  [ table ]
