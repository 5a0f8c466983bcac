(** Shared plumbing for the experiment suite. *)

open Sched_model
open Sched_sim

val seeds : quick:bool -> int list
(** Five seeds normally, two in quick mode. *)

val per_seed : quick:bool -> (int -> 'a) -> 'a list
(** [per_seed ~quick f] evaluates [f] on every seed, in parallel on the
    ambient domain pool ({!Sched_stats.Parallel} over
    {!Sched_stats.Pool.ambient} — under [Registry.run_all] that is the
    pool already running the experiment, so nothing oversubscribes);
    results come back in seed order, so tables are identical to
    sequential runs. *)

val per_seed_obs :
  ?obs:Sched_obs.Obs.t -> quick:bool -> (obs:Sched_obs.Obs.t option -> int -> 'a) -> 'a list
(** Like {!per_seed}, threading telemetry: [f] receives a fresh
    counters-only shard handle per seed (or [None] when [obs] is
    [None]), and the shard registries are merged into [obs] in seed
    order after the join — deterministic regardless of how the seeds
    were scheduled across domains. *)

val scale : quick:bool -> int -> int
(** Shrinks instance sizes in quick mode (divides by 3, min 20). *)

val mean : float list -> float

val run_policy : ?obs:Sched_obs.Obs.t -> 'a Driver.policy -> Instance.t -> Schedule.t
(** Runs and validates (deadlines not enforced — flow instances may carry
    none).  [?obs] as in {!Sched_sim.Driver.run}. *)

type flow_measurement = {
  completed_flow : float;
  total_flow : float;  (** Rejected jobs' (release -> rejection) included. *)
  rejected_fraction : float;
  rejected_weight_fraction : float;
  max_flow : float;
}

val measure_flow : Schedule.t -> flow_measurement

val eps_grid : float list
(** The [eps] values experiments sweep: [0.1; 0.2; 1/3; 0.5]. *)
