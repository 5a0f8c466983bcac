type entry = {
  id : string;
  title : string;
  reproduces : string;
  run : obs:Sched_obs.Obs.t option -> quick:bool -> Sched_stats.Table.t list;
}

let all =
  [
    {
      id = "e1";
      title = "Flow-time competitiveness and rejection budget";
      reproduces = "Theorem 1";
      run = E1_flow_competitive.run;
    };
    {
      id = "e2";
      title = "Immediate-rejection lower bound (adversary)";
      reproduces = "Lemma 1";
      run = E2_immediate_lb.run;
    };
    {
      id = "e3";
      title = "Weighted flow-time plus energy";
      reproduces = "Theorem 2";
      run = E3_flow_energy.run;
    };
    {
      id = "e4";
      title = "Energy minimization with deadlines";
      reproduces = "Theorem 3";
      run = E4_energy_min.run;
    };
    {
      id = "e5";
      title = "Energy lower-bound adversary";
      reproduces = "Lemma 2";
      run = E5_energy_adversary.run;
    };
    {
      id = "e6";
      title = "Dual-fitting certificate";
      reproduces = "Lemma 4 / Theorem 1 analysis";
      run = E6_dual_certificate.run;
    };
    {
      id = "e7";
      title = "Smoothness of power functions";
      reproduces = "Definition 1 / Theorem 3 analysis";
      run = E7_smoothness.run;
    };
    {
      id = "e8";
      title = "Ablation of the Theorem 1 algorithm";
      reproduces = "Design choices (Section 2)";
      run = E8_ablation.run;
    };
    {
      id = "e9";
      title = "Rejection vs speed augmentation";
      reproduces = "Comparison with [5] (Section 1.1)";
      run = E9_speed_vs_reject.run;
    };
    {
      id = "e11";
      title = "Weighted flow-time extension";
      reproduces = "Extension (open problem noted in Section 1.2)";
      run = E11_weighted_flow.run;
    };
    {
      id = "e12";
      title = "Tail flow-time";
      reproduces = "Extension (motivation of Section 1 / related work [6])";
      run = E12_tail_latency.run;
    };
    {
      id = "e13";
      title = "M/G/1 simulator validation";
      reproduces = "Methodology (Pollaczek-Khinchine cross-check)";
      run = E13_mg1_validation.run;
    };
    {
      id = "e14";
      title = "Restart relaxation vs rejection";
      reproduces = "Extension (conclusion: other relaxations)";
      run = E14_restarts.run;
    };
    {
      id = "e15";
      title = "Cluster-scale simulation";
      reproduces = "Methodology (flow-reject at cluster scale)";
      run = E15_cluster_scale.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(* Structural counters: cheap, input-determined facts about the run that
   any domain count must reproduce exactly — the differential tests
   compare exports across sequential and pooled runs. *)
let record_structure shard e tables =
  let registry = Sched_obs.Obs.registry shard in
  let labels = [ ("experiment", e.id) ] in
  let tables_c =
    Sched_obs.Registry.counter registry ~help:"Tables produced per experiment" ~labels
      "exp_tables_total"
  in
  Sched_obs.Metric.Counter.add tables_c (float_of_int (List.length tables));
  let rows =
    List.fold_left (fun acc t -> acc + List.length (Sched_stats.Table.rows t)) 0 tables
  in
  let rows_c =
    Sched_obs.Registry.counter registry ~help:"Table rows produced per experiment" ~labels
      "exp_rows_total"
  in
  Sched_obs.Metric.Counter.add rows_c (float_of_int rows)

(* One experiment = one pool task; seed replication inside an experiment
   then submits to the same pool through the ambient mechanism
   (Exp_util.per_seed), so the whole suite shares one fixed set of
   domains.  Each task records telemetry into its own shard registry and
   the shards merge into [obs] in registry order after the join, making
   the export a pure function of the inputs — byte-identical for every
   domain count, sequential included. *)
let run_all ?(quick = false) ?obs ?pool ?only () =
  let entries =
    match only with None -> all | Some ids -> List.filter (fun e -> List.mem e.id ids) all
  in
  let run_one e =
    match obs with
    | None -> (e, e.run ~obs:None ~quick, None)
    | Some _ ->
        let registry = Sched_obs.Registry.create () in
        let shard = Sched_obs.Obs.create ~registry () in
        let tables = e.run ~obs:(Some shard) ~quick in
        record_structure shard e tables;
        (e, tables, Some registry)
  in
  let results =
    match pool with
    | None -> List.map run_one entries
    | Some pool -> Sched_stats.Pool.parallel_map_list ~chunk_size:1 pool run_one entries
  in
  Option.iter
    (fun o ->
      List.iter
        (fun (_, _, shard) ->
          Option.iter (fun r -> Sched_obs.Registry.merge ~into:(Sched_obs.Obs.registry o) r) shard)
        results)
    obs;
  List.map (fun (e, tables, _) -> (e, tables)) results
