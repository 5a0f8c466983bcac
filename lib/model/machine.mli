(** Machines.

    A machine has a nominal speed factor (1.0 in the paper's model; larger in
    the speed-augmentation baseline of [Lucarelli et al., ESA 2016]) and a
    power exponent [alpha] used when the machine runs under speed scaling
    with power function [P(s) = s^alpha]. *)

type id = int

type t = private { id : id; speed : float; alpha : float }

val create : id:id -> ?speed:float -> ?alpha:float -> unit -> t
(** [speed] defaults to [1.0] (must be positive); [alpha] defaults to [3.0]
    (must be [>= 1.0]). *)

val with_speed : t -> float -> t

val fleet : ?speed:float -> ?alpha:float -> int -> t array
(** [fleet m] is [m] identical machines with ids [0..m-1]. *)
