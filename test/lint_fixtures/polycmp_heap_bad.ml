(* Fixture: polymorphic comparators handed to the simulator's heap
   constructors fire RJL002, exactly as they do in sorts. *)

let by_key () = Pqueue.Iheap.create ~less:( < ) ()

let by_key_desc keys =
  Pqueue.Iheap.create ~less:(fun a b -> keys.(a) > keys.(b)) ()

let flat_order keys =
  Pqueue.Iheap.create ~less:(fun a b -> keys.(a) < keys.(b)) ()

let qualified_flat () = Sched_sim.Pqueue.Iheap.create ~less:(fun a b -> a < b) ()
