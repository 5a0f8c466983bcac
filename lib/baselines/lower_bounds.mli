(** Lower bounds on the offline optimum, used as the denominator of every
    measured competitive ratio.

    Every bound here is provably below (or equal to) the true OPT, so
    [algorithm cost / best lower bound] is an {e upper bound} on the
    empirical competitive ratio — the honest direction for checking the
    paper's guarantees. *)

open Sched_model

type bound = { value : float; source : string }

val min_time : Machine.t array -> Job.t -> float
(** [min_time machines j] is [min_i p_ij / speed_i], the least time job
    [j] can take on the fleet.  Apply it to the fleet once: the partial
    application decides whether the fleet has one speed, which makes
    each job O(1). *)

val volume : Instance.t -> bound
(** [sum_j min_time j] in [(release, id)] order: every job must at least
    be processed.  A caller that sees the jobs one at a time adds up the
    same bits by folding {!min_time} in that order. *)

val best_flow : ?lp_max_variables:int -> ?brute_max_n:int -> Instance.t -> bound
(** The largest available bound: {!volume}, the preemptive SRPT optimum
    (only for [m = 1]), half the discretized time-indexed LP value (see
    {!Sched_lp.Flow_lp}) and exact OPT for tiny instances. *)
