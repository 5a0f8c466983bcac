(* Fixture: the lib/ callers — by name, and by handing a module over
   whole to a functor. *)

module M = Map.Make (Rjl104_ord)

let run () = Rjl104_bad.used (Rjl104_allow.used (M.cardinal M.empty))
