(* Fixture: typed or named heap comparators must NOT fire RJL002. *)

let less_release releases a b = Float.compare releases.(a) releases.(b) < 0
let flat_by_release h releases ~pos ~id = Pqueue.Iheap.add h ~less:less_release releases ~pos ~id

let lambda_typed h keys ~pos ~id =
  Pqueue.Iheap.remove h
    ~less:(fun keys a b -> Int.equal (Float.compare keys.(a) keys.(b)) (-1))
    keys ~pos ~id

(* The heap itself carries no order, so creating one is none of our
   business; nor is [mem], which takes a position table but no order,
   nor [create] on anything that is not a heap module. *)
let empty () = Pqueue.Iheap.create ()
let held h ~pos ~id = Pqueue.Iheap.mem h ~pos ~id
let other () = Buffer.create 16
