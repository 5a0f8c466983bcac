(** Objective values of a schedule.

    Conventions follow the paper: the algorithm's flow-time objective counts
    the jobs it completes; a rejected job's flow-time (release to rejection)
    is reported separately.  Energy integrates the machine power function
    [P(s) = s^alpha] over the *aggregate* speed of each machine, which is
    correct both for exclusive execution (Sections 2-3) and for the parallel
    execution allowed by the Section 4 model. *)

type flow = {
  total : float;  (** Sum of flow-times of completed jobs. *)
  weighted : float;
  total_with_rejected : float;  (** Adds release-to-rejection times. *)
  weighted_with_rejected : float;
  max_flow : float;  (** 0 when no job completed. *)
  mean_flow : float;
  max_stretch : float;  (** Flow over minimum size, completed jobs. *)
}

val flow : Schedule.t -> flow

val flow_values : ?include_rejected:bool -> Schedule.t -> float array
(** Per-job flow-times of completed jobs in job-id order (rejected jobs'
    release-to-rejection times appended when [include_rejected], default
    false).  Feed to {!Sched_stats.Summary} for tail statistics. *)

val makespan : Schedule.t -> float
(** Latest segment end (0 for an empty schedule). *)

(* rejlint: allow test-only-export — tests hold Flow_lp's optimum against it *)
val fractional_flow : ?include_rejected:bool -> Schedule.t -> float
(** [sum_j integral (q_j(t) / p_j) dt] — the fractional flow-time of the
    paper's Section 2 LP: each job contributes its waiting time at weight 1
    and its execution at linearly vanishing weight (a contiguous run of
    length [d] contributes [d/2]).  For any feasible schedule,
    [fractional_flow + total volume >= the LP optimum], the relation behind
    the paper's factor-2 argument.  Rejected jobs contribute their waiting
    plus partial-execution integral up to rejection when
    [include_rejected] (default false). *)

val energy : Schedule.t -> float
(** [sum_i integral P_i(s_i(t)) dt] where [s_i(t)] is the sum of the speeds
    of the segments active on machine [i] at time [t] and
    [P_i(s) = s^alpha_i]. *)

type rejection = {
  count : int;
  fraction : float;  (** Rejected jobs over all jobs. *)
  weight : float;
  weight_fraction : float;  (** Rejected weight over total weight. *)
  mid_run : int;  (** Rejections that interrupted a running job (Rule 1). *)
}

val rejection : Schedule.t -> rejection

type live = { flow : flow; energy : float; rejection : rejection; makespan : Time.t }
(** The objective values a run claims for itself: the simulator's
    incremental metrics ({!Sched_sim.Driver.live_metrics}), which the
    oracle reconciles against {!flow}, {!energy}, {!rejection} and
    {!makespan} recomputed from the schedule. *)

(* rejlint: allow test-only-export — tests check that schedules conserve work with it *)
val busy_time : Schedule.t -> Machine.id -> float
(** Total time machine [i] has at least one active segment. *)
