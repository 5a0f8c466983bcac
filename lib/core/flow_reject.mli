(** The paper's Theorem 1 algorithm: online non-preemptive total flow-time
    minimization on unrelated machines with rejections.

    At every job release the algorithm computes, per machine,

    [lambda_ij = (1/eps) p_ij + sum_{l <= j} p_il + sum_{l > j} p_ij]

    over the pending jobs of machine [i] ordered by shortest processing time
    (ties by release, then id; [l <= j] includes [j] itself), dispatches to
    the argmin, and applies the two rejection rules:

    - {b Rule 1}: each running job [k] carries a counter [v_k] incremented
      whenever a job is dispatched to its machine during [k]'s execution;
      when [v_k] reaches [ceil(1/eps)], [k] is interrupted and rejected.
    - {b Rule 2}: each machine carries a counter [c_i] incremented at every
      dispatch; when [c_i] reaches [ceil(1 + 1/eps)], the pending job with
      the largest processing time is rejected and [c_i] resets to zero.

    Idle machines always start the shortest pending job (SPT).

    Theorem 1: the algorithm is [2((1+eps)/eps)^2]-competitive for total
    flow-time and rejects at most a [2 eps] fraction of the jobs.

    The configuration flags exist for the ablation experiment (E8): each
    rule can be disabled and the dual-fitting dispatch can be swapped for a
    naive greedy-completion-time dispatch. *)

open Sched_sim

type dispatch_rule =
  | Dual_lambda  (** The paper's [lambda_ij] marginal-increase dispatch. *)
  | Greedy_load  (** Argmin of (remaining work + pending work + p_ij). *)

type config = {
  eps : float;  (** In (0,1): rejection budget knob. *)
  rule1 : bool;
  rule2 : bool;
  dispatch : dispatch_rule;
}

val config : ?rule1:bool -> ?rule2:bool -> ?dispatch:dispatch_rule -> eps:float -> unit -> config
(** Defaults: both rules on, [Dual_lambda] dispatch. *)

type state

val policy : config -> state Driver.policy
(** The online policy, to be run with {!Sched_sim.Driver.run}. *)

val lambdas : state -> float array
(** After a run: the dual variables [lambda_j = eps/(1+eps) min_i lambda_ij]
    fixed at each job's arrival (Lemma 4 instrumentation), indexed by job
    id.  Defined with {!effective_eps}.  Complete for a run that does not
    retire ({!Sched_sim.Driver.run} or a non-retiring session, which
    leave the same bits); a retiring session reuses slots and
    keeps only the jobs that hold one. *)

val effective_eps : state -> float
(** [1 / ceil(1/eps)]: the epsilon the integral counters actually realize
    (the paper's thresholds [1/eps] and [1 + 1/eps] are implicitly
    integer).  The run is exactly the paper's algorithm at this value, so
    rejection budgets and the dual certificate are stated against it;
    [effective_eps <= eps] always, hence all guarantees claimed at [eps]
    still hold. *)

val rule1_rejections : state -> int
val rule2_rejections : state -> int
