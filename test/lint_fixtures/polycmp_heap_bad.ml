(* Fixture: polymorphic comparators handed to the simulator's heap
   operations fire RJL002, exactly as they do in sorts. *)

let by_key h ~id = Pqueue.Iheap.add h ~less:( < ) () 0 ~id

let by_key_desc h keys ~id =
  Pqueue.Iheap.add h ~less:(fun keys _ a b -> keys.(a) > keys.(b)) keys 0 ~id

let flat_order h keys ~id =
  Pqueue.Iheap.remove h ~less:(fun keys _ a b -> keys.(a) < keys.(b)) keys 0 ~id

let qualified_flat h = Sched_sim.Pqueue.Iheap.invariant h ~less:(fun () _ a b -> a < b) () 0
