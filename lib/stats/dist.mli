(** Probability distributions used by the workload generators.

    A distribution is a first-class sampler over positive floats together
    with a human-readable name (used in experiment tables) and, when known in
    closed form, its mean. *)

type t

val name : t -> string
(** Short identifier, e.g. ["pareto(1.5,1)"]. *)

val mean : t -> float option
(** Closed-form mean when finite and known. *)

val sample : t -> Rng.t -> float
(** Draw one value.  All distributions here produce strictly positive
    samples. *)

val constant : float -> t
(** Point mass at [v > 0]. *)

val uniform : lo:float -> hi:float -> t
(** Uniform on [[lo, hi]], [0 < lo <= hi]. *)

val exponential : mean:float -> t
(** Exponential with the given mean ([mean > 0]). *)

val bounded_pareto : shape:float -> lo:float -> hi:float -> t
(** Pareto truncated to [[lo, hi]] by inverse-CDF sampling; the standard
    heavy-tailed-but-bounded job-size model. *)

val bimodal : lo:float -> hi:float -> p_hi:float -> t
(** Mass [1 - p_hi] at [lo] and [p_hi] at [hi]: the "mice and elephants"
    workload. *)

val lognormal : mu:float -> sigma:float -> t
(** Log-normal with location [mu] and scale [sigma] of the underlying
    normal. *)
