(* Fixture: one exported value only a test calls. *)

val used : int -> int
val test_only : int -> int
