(* Fixture: polymorphic comparators handed to the simulator's heap
   operations fire RJL002, exactly as they do in sorts. *)

let by_key h ~pos ~id = Pqueue.Iheap.add h ~less:( < ) () ~pos ~id

let by_key_desc h keys ~pos ~id =
  Pqueue.Iheap.add h ~less:(fun keys a b -> keys.(a) > keys.(b)) keys ~pos ~id

let flat_order h keys ~pos ~id =
  Pqueue.Iheap.remove h ~less:(fun keys a b -> keys.(a) < keys.(b)) keys ~pos ~id

let qualified_flat heaps ~pos =
  Sched_sim.Pqueue.Iheap.invariant heaps ~less:(fun () a b -> a < b) () ~pos
