(* Fixture: heap-comparator RJL002 findings honour suppressions. *)

let by_key h ~pos ~id = Pqueue.Iheap.add h ~less:( < ) () ~pos ~id (* rejlint: allow RJL002 *)

let flat_order h keys ~pos ~id =
  (* rejlint: allow poly-compare *)
  Pqueue.Iheap.remove h ~less:(fun keys a b -> keys.(a) < keys.(b)) keys ~pos ~id
