(* Fixture: a value reached only through a functor argument. *)

type t = int

val compare : t -> t -> int
