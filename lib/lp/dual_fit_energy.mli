(** Empirical verification of the paper's Section 3 dual-fitting analysis
    (Lemma 6): the dual variables of the weighted flow-time plus energy
    algorithm form a feasible solution of the dual program.

    From a run's trace and schedule we reconstruct the proof's objects:

    - the definitive-finish times [C~_j] (completion/rejection extended by
      [q_ik(r_jk) / s_k] for every job [k] rejected on the same machine
      while [j] was alive);
    - the total fractional weight [V_i(t)] of not-definitively-finished
      jobs ([w_l q_il(t) / p_il]; remaining volume frozen at rejection,
      zero after completion), a piecewise-linear function;
    - [u_i(t) = (eps / (gamma_i (1+eps)(alpha-1)))^(1/(alpha-1)) V_i(t)^(1/alpha)].

    The dual constraint checked at sampled times [t >= r_j] (event
    breakpoints plus interior subdivisions — [V_i] falls inside segments
    while the flow term grows, so minima can be interior):

    [lambda_j / p_ij <= delta_ij (t - r_j + p_ij) + alpha u_i(t)^(alpha-1)
                        + alpha / (gamma_i (alpha-1)) w_j^((alpha-1)/alpha)]

    Because [u_i^alpha] is {e linear} in [V_i], the dual objective's energy
    term [sum_i int (1-alpha) u_i^alpha dt] integrates exactly over the
    piecewise-linear [V_i]. *)

open Sched_model
open Sched_sim

type report = {
  eps : float;
  alpha : float;  (** Of machine 0 (assumed uniform for the summary). *)
  lambda_sum : float;
  u_alpha_integral : float;  (** [sum_i int u_i(t)^alpha dt]. *)
  dual_objective : float;  (** [lambda_sum - (alpha-1) * u_alpha_integral]. *)
  primal : float;  (** Weighted flow (rejected jobs up to rejection) plus
                       energy. *)
  min_constraint_slack : float;  (** Lemma 6: must be [>= -1e-6]. *)
  constraints_checked : int;
  primal_over_dual : float;
}

val certify :
  eps:float ->
  gammas:float array ->
  lambdas:float array ->
  Instance.t ->
  Trace.t ->
  Schedule.t ->
  report
(** [gammas] are the per-machine speed constants actually used (from
    {!Rejection.Flow_energy_reject.gamma_of_machine}); [lambdas] the dual
    variables fixed at each arrival. *)
