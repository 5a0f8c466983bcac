(** Weighted extension of the Theorem 1 algorithm (an {e extension}, not a
    result of the paper: online non-preemptive {b weighted} flow-time with
    rejections has no published constant bound — the paper's related-work
    section notes the Omega(n) lower bound without rejection).

    The construction transplants the paper's machinery to weights:

    - service order: highest density first ([w/p], the weighted analogue of
      SPT, as in the paper's Section 3);
    - dispatch: argmin of the weighted marginal-increase proxy
      [lambda_ij = w_j (p_ij/eps + sum_{l<=j} p_il) + (sum_{l>j} w_l) p_ij];
    - {b Rule 1w} (as in Theorem 2): the running job [k] accumulates the
      weight dispatched during its execution and is interrupted when that
      exceeds [w_k / eps];
    - {b Rule 2w}: each machine accumulates dispatched weight [c_i]; when
      [c_i >= (1 + 1/eps) * w_x] for [x] the pending job with the largest
      processing time, [x] is rejected and [c_i] resets.

    The same charging arguments as the paper's budget lemmas give rejected
    weight at most [2 eps] of the total weight (verified by property tests
    and experiment E11); no competitive-ratio claim is made. *)

open Sched_sim

type config = { eps : float; rule1 : bool; rule2 : bool }

val config : ?rule1:bool -> ?rule2:bool -> eps:float -> unit -> config

type state

val policy : config -> state Driver.policy
