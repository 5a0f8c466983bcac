(** The paper's Theorem 2 algorithm: online non-preemptive total weighted
    flow-time plus energy minimization under speed scaling
    ([P(s) = s^alpha]).

    Pending jobs on a machine are ordered by non-increasing density
    [delta_ij = w_j / p_ij] (highest density first; ties by release then
    id).  When machine [i] goes idle it starts the highest-density pending
    job at speed

    [s = gamma * (sum of pending weights)^(1/alpha)]

    held constant for that execution.  Dispatch minimizes the marginal-cost
    proxy

    [lambda_ij = w_j (p_ij/eps + sum_{l <= j} p_il / (gamma W_l^(1/alpha)))
               + (sum_{l > j} w_l) p_ij / (gamma W_j^(1/alpha))]

    with [W_l] the prefix weight in density order.  The single rejection
    rule is weight-based Rule 1: the running job [k] accumulates the weight
    of jobs dispatched during its execution and is interrupted and rejected
    when that exceeds [w_k / eps].

    Theorem 2: the algorithm is
    [O((1 + 1/eps)^(alpha/(alpha-1)))]-competitive for weighted flow-time
    plus energy and rejects jobs of total weight at most [eps] times the
    total weight. *)

open Sched_model
open Sched_sim

type config = {
  eps : float;  (** In (0,1): fraction of total weight that may be rejected. *)
  gamma : float option;
      (** Speed constant; [None] uses {!Bounds.gamma_best} for each
          machine's [alpha]. *)
}

val config : ?gamma:float -> eps:float -> unit -> config

type state

val policy : config -> state Driver.policy

val lambdas : state -> float array
(** Dual variables [lambda_j = eps/(1+eps) min_i lambda_ij], by job id.
    Complete for a run that does not retire ({!Sched_sim.Driver.run} or
    a non-retiring session, which leave the same bits); a retiring
    session reuses slots and keeps only the jobs that hold one. *)

val gamma_of_machine : state -> Machine.id -> float
(** The speed constant actually used on a machine. *)
