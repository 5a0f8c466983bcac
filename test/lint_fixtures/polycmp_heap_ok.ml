(* Fixture: typed or named heap comparators must NOT fire RJL002. *)

let less_release releases _base a b = Float.compare releases.(a) releases.(b) < 0
let flat_by_release h releases ~id = Pqueue.Iheap.add h ~less:less_release releases 0 ~id

let lambda_typed h keys ~id =
  Pqueue.Iheap.remove h
    ~less:(fun keys _ a b -> Int.equal (Float.compare keys.(a) keys.(b)) (-1))
    keys 0 ~id

(* The heap itself carries no order, so creating one is none of our
   business; nor is [create] on anything that is not a heap module. *)
let empty () = Pqueue.Iheap.create ()
let other () = Buffer.create 16
