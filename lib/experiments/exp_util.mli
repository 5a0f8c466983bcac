(** Shared plumbing for the experiment suite. *)

open Sched_model

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

val assert_audit : Policy_registry.entry -> Schedule.t -> Sched_sim.Driver.live_metrics -> unit
(** Raises [Failure] listing the violations unless
    {!Policy_registry.audit} passes the run: for a caller that runs the
    entry's policy through {!Sched_sim.Driver.run} itself to keep its
    final state. *)

val run : ?obs:Sched_obs.Obs.t -> Policy_registry.entry -> Instance.t -> Schedule.t
(** Runs the entry and checks the run with {!assert_audit} (the entry's
    budget and restart relaxation, live metrics reconciled, deadlines
    not enforced).  [?obs] as in {!Sched_sim.Driver.run}. *)

val entry : eps:float -> string -> Policy_registry.entry
(** {!Policy_registry.find} at [eps]; raises [Invalid_argument] on an
    unknown name. *)

val flow_reject_no_rules : eps:float -> Policy_registry.entry
(** Theorem 1's dispatch with both rejection rules off, so with budget
    [Count_fraction 0.]: the "no rejection" ablation of E8 and E14. *)

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
