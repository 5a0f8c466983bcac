(* Fixture: typed or named heap comparators must NOT fire RJL002. *)

let less_release releases a b = Float.compare releases.(a) releases.(b) < 0
let flat_by_release releases = Pqueue.Iheap.create ~less:(less_release releases) ()

let lambda_typed keys =
  Pqueue.Iheap.create ~less:(fun a b -> Int.equal (Float.compare keys.(a) keys.(b)) (-1)) ()

(* [create] on anything that is not a heap module is none of our
   business. *)
let other () = Buffer.create 16
