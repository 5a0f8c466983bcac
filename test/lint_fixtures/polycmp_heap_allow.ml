(* Fixture: heap-comparator RJL002 findings honour suppressions. *)

let by_key () = Pqueue.Iheap.create ~less:( < ) () (* rejlint: allow RJL002 *)

let flat_order keys =
  (* rejlint: allow poly-compare *)
  Pqueue.Iheap.create ~less:(fun a b -> keys.(a) < keys.(b)) ()
