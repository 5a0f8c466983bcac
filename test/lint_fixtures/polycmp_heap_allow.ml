(* Fixture: heap-comparator RJL002 findings honour suppressions. *)

let by_key h ~id = Pqueue.Iheap.add h ~less:( < ) () 0 ~id (* rejlint: allow RJL002 *)

let flat_order h keys ~id =
  (* rejlint: allow poly-compare *)
  Pqueue.Iheap.remove h ~less:(fun keys _ a b -> keys.(a) < keys.(b)) keys 0 ~id
