(** Lower bounds on the offline optimum, used as the denominator of every
    measured competitive ratio.

    Every bound here is provably below (or equal to) the true OPT, so
    [algorithm cost / best lower bound] is an {e upper bound} on the
    empirical competitive ratio — the honest direction for checking the
    paper's guarantees. *)

open Sched_model

type bound = { value : float; source : string }

val volume : Instance.t -> bound
(** [sum_j min_i p_ij / speed_i]: every job must at least be processed. *)

val best_flow : ?lp_max_variables:int -> ?brute_max_n:int -> Instance.t -> bound
(** The largest available bound: {!volume}, the preemptive SRPT optimum
    (only for [m = 1]), half the discretized time-indexed LP value (see
    {!Sched_lp.Flow_lp}) and exact OPT for tiny instances. *)
