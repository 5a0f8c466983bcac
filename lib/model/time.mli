(** Continuous simulation time.

    Time is a float; this module centralizes the absolute tolerance
    ([1e-9]) used when comparing event times so that accumulated
    floating-point error never reorders causally-ordered events. *)

type t = float

val equal : t -> t -> bool
val lt : t -> t -> bool
val gt : t -> t -> bool

val nonneg : t -> bool
(** [nonneg t] holds when [t >= -1e-9]. *)

val pp : Format.formatter -> t -> unit
