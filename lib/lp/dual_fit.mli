(** Empirical verification of the paper's dual-fitting analysis (Section 2).

    Given a run of the Theorem 1 algorithm — its trace, its dual variables
    [lambda_j] and its schedule — this module reconstructs the analysis
    objects of the proof:

    - the {e definitive finish} times [C~_j] (completion/rejection time
      extended by the Rule 1 remainders [q_ik(r_jk)] of jobs rejected while
      [j] was alive, and by the Rule 2 estimated-completion term);
    - the step functions [|U_i(t)|] (pending or running) and [|V_i(t)|]
      (finished or rejected but not yet definitively finished), giving
      [beta_i(t) = eps/(1+eps)^2 (|U_i(t)| + |V_i(t)|)];
    - the dual objective [sum_j lambda_j - sum_i int beta_i(t) dt].

    It then checks the dual constraint of Lemma 4,

    [lambda_j / p_ij <= (t - r_j)/p_ij + 1 + beta_i(t)],

    for every job, every machine and every breakpoint of [beta_i], and
    reports the minimum slack (negative slack would falsify the proof). *)

open Sched_model
open Sched_sim

type report = {
  eps : float;
  lambda_sum : float;  (** [sum_j lambda_j]. *)
  beta_integral : float;  (** [sum_i int beta_i(t) dt]. *)
  dual_objective : float;  (** [lambda_sum - beta_integral]; by weak duality
                               at most the LP optimum, hence at most
                               [2 OPT]. *)
  ctilde_sum : float;  (** [sum_j (C~_j - r_j)]. *)
  algo_flow : float;  (** The algorithm's total flow-time, rejected jobs
                          included (their flow ends at rejection). *)
  min_constraint_slack : float;
      (** Minimum slack over {e all} (i, j, t).  Reproduction finding: the
          paper's Lemma 4 case analysis assumes [j] was dispatched to the
          machine [i] under scrutiny ("assuming that j is in U_i(r_j)"),
          which contributes one extra job to [|U_i(t)|]; on machines [j]
          was {e not} dispatched to, the realized [beta_i(t)] can fall
          short of the counterfactual by exactly one quantum
          [eps/(1+eps)^2].  So the honest requirements are
          [min_slack_dispatch_machine >= -1e-6] and
          [min_constraint_slack >= -counterfactual_quantum - 1e-6]. *)
  min_slack_dispatch_machine : float;
      (** Minimum slack restricted to each job's own dispatch machine,
          where the proof needs no counterfactual: must be [>= -1e-6]. *)
  counterfactual_quantum : float;  (** [eps/(1+eps)^2], one job's worth of
                                       [beta]. *)
  worst_constraint : int * int * float;
      (** The (machine, job, time) achieving the minimum slack. *)
  constraints_checked : int;
  primal_over_dual : float;  (** [algo_flow / dual_objective]; the proof
                                 guarantees at most [((1+eps)/eps)^2]. *)
  corollary1_max_ratio : float;
      (** Lemma 3 / Corollary 1 structural invariant: the maximum over
          machines and event times of [|U_i(t)| / (|R_i(t)| + 1)], with
          [R_i(t)] the Rule-2-rejected jobs not yet definitively finished.
          The partition argument bounds it by [ceil(1/eps) + 2]. *)
}

val certify :
  eps:float -> lambdas:float array -> Instance.t -> Trace.t -> Schedule.t -> report
