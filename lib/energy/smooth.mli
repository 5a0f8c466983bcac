(** Numeric verification of [(lambda, mu)]-smoothness (the paper's
    Definition 1 and the smooth inequality of Cohen-Duerr-Thang it relies
    on for Theorem 3).

    For scalar power functions the relevant inequality is: for all
    non-negative [a_1..a_n] and [b_1..b_n],

    [sum_i (P(b_i + A_i) - P(A_i)) <= lambda P(sum_i b_i) + mu P(sum_i a_i)]

    with [A_i = a_1 + ... + a_i].  {!required_lambda} searches for the
    worst case empirically: given [mu], it reports the largest
    [ (sum_i (P(b_i+A_i) - P(A_i)) - mu P(sum a)) / P(sum b) ]
    over randomized and structured trials — an empirical lower bound on the
    best possible [lambda], to be compared with the claimed
    [Theta(alpha^(alpha-1))]. *)

open Sched_stats

val required_lambda :
  ?trials:int -> ?n:int -> Power.t -> mu:float -> Rng.t -> float
(** Empirical worst-case [lambda] for the given [mu] over [trials] random
    sequences of length up to [n] (default 2000 trials, n = 8), plus
    structured adversarial patterns (equal blocks, single spike,
    geometric). *)
