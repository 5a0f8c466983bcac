(* Fixture: the same test-only value, kept with a reason; and a stale
   allow comment on a value that has a caller in lib/. *)

(* rejlint: allow test-only-export — the fixture's deliberate oracle *)
val test_only : int -> int

(* rejlint: allow test-only-export — stale: lib/ calls it *)
val used : int -> int
