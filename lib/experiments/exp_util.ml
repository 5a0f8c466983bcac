open Sched_model
open Sched_sim

let seeds ~quick = if quick then [ 11; 42 ] else Sched_workload.Suite.default_seeds

(* Seed replication submits to the ambient pool (Sched_stats.Pool): under
   Registry.run_all the enclosing experiment task's pool, so experiments
   and seeds share one fixed set of domains; standalone (single
   experiment from the CLI) the process-wide default pool. *)
let per_seed ~quick f =
  Sched_stats.Pool.parallel_map_list (Sched_stats.Pool.ambient ()) f (seeds ~quick)

(* Telemetry-aware variant: each seed records into its own shard registry
   (seeds may run on different domains concurrently), and the shards are
   folded back into [obs] in seed order — so the merged snapshot is
   byte-identical however the seeds were scheduled. *)
let per_seed_obs ?obs ~quick f =
  match obs with
  | None -> per_seed ~quick (fun seed -> f ~obs:None seed)
  | Some o ->
      let shards =
        per_seed ~quick (fun seed ->
            let registry = Sched_obs.Registry.create () in
            let shard = Sched_obs.Obs.create ~registry () in
            (f ~obs:(Some shard) seed, registry))
      in
      List.map
        (fun (result, registry) ->
          Sched_obs.Registry.merge ~into:(Sched_obs.Obs.registry o) registry;
          result)
        shards

let scale ~quick n = if quick then max 20 (n / 3) else n

let mean = function
  | [] -> invalid_arg "Exp_util.mean: empty"
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let run_policy ?obs policy instance =
  let schedule, _, _ = Driver.run ?obs policy instance in
  Schedule.assert_valid ~check_deadlines:false schedule;
  schedule

type flow_measurement = {
  completed_flow : float;
  total_flow : float;
  rejected_fraction : float;
  rejected_weight_fraction : float;
  max_flow : float;
}

let measure_flow schedule =
  let f = Metrics.flow schedule in
  let r = Metrics.rejection schedule in
  {
    completed_flow = f.Metrics.total;
    total_flow = f.Metrics.total_with_rejected;
    rejected_fraction = r.Metrics.fraction;
    rejected_weight_fraction = r.Metrics.weight_fraction;
    max_flow = f.Metrics.max_flow;
  }

let eps_grid = [ 0.1; 0.2; 1. /. 3.; 0.5 ]
