(* Fixture: the test-side caller. *)

let run () = Rjl104_bad.test_only (Rjl104_allow.test_only (Rjl104_bad.used 1))
