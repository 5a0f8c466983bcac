(** E15 (methodology): flow-reject at cluster scale.

    Single large instances (n up to 5 x 10^4, m up to 128 in full mode)
    run through {!Sched_sim.Driver.run}, reporting the empirical
    flow-time ratio against the volume lower bound (with and without the
    rejected jobs' flow) and the rejection fraction.  Throughput and GC
    figures for these shapes are measured by the bench harness, keeping
    the experiment tables deterministic. *)

val run : obs:Sched_obs.Obs.t option -> quick:bool -> Sched_stats.Table.t list
