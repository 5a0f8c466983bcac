(** Continuous simulation time.

    Time is a float; this module centralizes the tolerance used when
    comparing event times so that accumulated floating-point error never
    reorders causally-ordered events. *)

type t = float

val tolerance : float
(** Absolute tolerance for time comparisons ([1e-9]). *)

val equal : t -> t -> bool
val leq : t -> t -> bool
val lt : t -> t -> bool
val gt : t -> t -> bool

val nonneg : t -> bool
(** [nonneg t] holds when [t >= -tolerance]. *)

val max : t -> t -> t
val min : t -> t -> t
val pp : Format.formatter -> t -> unit
