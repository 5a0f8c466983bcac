(** Closed-form theoretical guarantees of the paper.

    These are the numbers every experiment checks its measurements against;
    keeping them in one module makes the claimed-vs-measured comparison in
    [EXPERIMENTS.md] mechanical. *)

val flow_competitive : eps:float -> float
(** Theorem 1: [2 * ((1 + eps) / eps)^2], the competitive ratio of the
    flow-time algorithm.  Requires [0 < eps < 1]. *)

val flow_rejection_budget : eps:float -> float
(** Theorem 1: at most a [2 * eps] fraction of the jobs is rejected. *)

val rule1_threshold : eps:float -> int
(** Rejection Rule 1 trips when the counter reaches [1/eps]; we use
    [ceil(1/eps)] for non-integer [1/eps] (rejecting no earlier, so the
    budget holds a fortiori). *)

val rule2_threshold : eps:float -> int
(** Rejection Rule 2 trips at [1 + 1/eps]; integralized as
    [ceil(1 + 1/eps)]. *)

val gamma : eps:float -> alpha:float -> float
(** Theorem 2's speed constant
    [(eps/(1+eps))^(1/(alpha-1)) * (1/(alpha-1)) *
     (alpha - 1 + ln(alpha-1))^((alpha-1)/alpha)].
    The last factor is only real/positive for [alpha > ~1.567]; below that we
    fall back to the first factor alone (see DESIGN.md).  Requires
    [alpha > 1]. *)

(* rejlint: allow test-only-export — tests check gamma_best against this objective *)
val flow_energy_ratio : eps:float -> alpha:float -> gamma:float -> float
(** Theorem 2's proof, before the choice of [gamma]: the ratio
    [(2 + alpha/(gamma (alpha-1)) + gamma^alpha) / D(gamma)] with
    [D(gamma) = eps/(1+eps)
                - (alpha-1) * (eps / (gamma (1+eps) (alpha-1)))^(alpha/(alpha-1))].
    Returns [infinity] when [D(gamma) <= 0]. *)

val gamma_best : eps:float -> alpha:float -> float
(** The [gamma] minimizing {!flow_energy_ratio} (log-grid + refinement).
    Used as the algorithm's default speed constant: the paper's closed-form
    choice (see {!gamma}) degenerates near [alpha = 2] where its
    simplified denominator vanishes. *)

val flow_energy_competitive : eps:float -> alpha:float -> float
(** Theorem 2: [flow_energy_ratio] at [gamma_best] — the exact constant the
    proof yields, which is [O((1 + 1/eps)^(alpha/(alpha-1)))]. *)

val flow_energy_envelope : eps:float -> alpha:float -> float
(** The asymptotic form [(1 + 1/eps)^(alpha/(alpha-1))] without constants,
    used for shape checks. *)

val energy_competitive : alpha:float -> float
(** Theorem 3: [alpha^alpha] for power functions [s^alpha]. *)

val energy_lb : alpha:float -> float
(** Lemma 2: [(alpha/9)^alpha]. *)

val smooth_mu : alpha:float -> float
(** The [(lambda, mu)]-smoothness of [s^alpha] per [Cohen, Duerr, Thang]:
    [mu = (alpha-1)/alpha]. *)

val smooth_lambda : alpha:float -> float
(** The matching [lambda = Theta(alpha^(alpha-1))]; we return
    [alpha^(alpha-1)] as the representative. *)
