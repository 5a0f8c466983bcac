(** Lower bounds on the offline optimum of the two speed-scaling
    objectives. *)

open Sched_model

(* rejlint: allow test-only-export — tests hold schedules' energy against this lower bound *)
val deadline_energy_lb : Instance.t -> float
(** Non-preemptive (indeed even preemptive, non-migratory) energy
    minimization with deadlines: since [P(s) = s^alpha] is convex with
    [P(0) = 0], power is superadditive across jobs sharing a machine, and
    each job alone needs at least [p_ij^alpha / (d_j - r_j)^(alpha-1)]
    (constant speed over its whole window, by Jensen).  Returns
    [sum_j min_i] of that quantity. *)

(* rejlint: allow test-only-export — tests hold schedules' energy against this lower bound *)
val yds_lb : Instance.t -> float option
(** For single-machine instances: the exact preemptive optimum (YDS), a
    tighter lower bound.  [None] when [m > 1]. *)

(* rejlint: allow test-only-export — tests hold schedules' energy against this lower bound *)
val assignment_yds_lb : ?max_n:int -> Instance.t -> float option
(** Exact lower bound for small multi-machine instances: minimum over all
    job-to-machine assignments of the sum of per-machine YDS (preemptive)
    optima.  Any non-migratory schedule — the Theorem 3 greedy never
    migrates — costs at least this much.  Enumerates [m^n] assignments, so
    [None] beyond [max_n] jobs (default 14) or more than 3 machines. *)

val best_deadline_energy : Instance.t -> float * string
(** The largest of the above with its label ([yds], [per-job] or
    [assign-yds]). *)

val flow_energy_lb : Instance.t -> float
(** Weighted flow-time plus energy (the Section 3 objective): each job
    alone costs at least
    [min_i min_s (w_j p_ij / s + p_ij s^(alpha-1))
     = min_i p_ij (w_j / s* + s*^(alpha-1))]
    with [s* = (w_j/(alpha-1))^(1/alpha)] — its weighted flow is at least
    its own processing time and the energy spent on it is minimized at
    constant speed.  Summing is valid because both terms are separable
    per-job lower bounds. *)
