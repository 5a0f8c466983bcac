(** Power functions for speed scaling.

    The paper's Sections 3-4 use [P(s) = s^alpha]; Theorem 3's analysis
    works for any [(lambda, mu)]-smooth power function, convex or not, so we
    keep the abstraction. *)

type t

val name : t -> string
val eval : t -> float -> float
(** [eval p s] is the power drawn at speed [s >= 0]. *)

val polynomial : alpha:float -> t
(** [P(s) = s^alpha], [alpha >= 1]. *)

val affine_polynomial : alpha:float -> static:float -> t
(** [P(s) = s^alpha + static] for [s > 0], [P(0) = 0]: a (non-convex at 0)
    model with static/leakage power, exercising Theorem 3's
    beyond-convexity claim. *)

val piecewise : (float * float) list -> t
(** [piecewise [(s1, p1); ...]]: step function, power [p_k] for speeds in
    [(s_(k-1), s_k]]; speeds must be increasing and powers
    non-decreasing. *)

val optimal_speed_for_flow : alpha:float -> weight:float -> float
(** The speed [s* = (weight / (alpha - 1))^(1/alpha)] minimizing
    [weight/s + s^(alpha-1)] — the per-job cost rate of the Section 3
    objective; used by the OPT lower bound. *)
