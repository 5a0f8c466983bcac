open Sched_sim
module E = Pqueue.Events

let pop_payload q = if E.pop q then E.payload q else -1

let test_basic_order () =
  let q = E.create () in
  E.push q ~key:3. ~tag:0 ~payload:3;
  E.push q ~key:1. ~tag:1 ~payload:1;
  E.push q ~key:2. ~tag:2 ~payload:2;
  Alcotest.(check int) "first" 1 (pop_payload q);
  Alcotest.(check int) "second" 2 (pop_payload q);
  Alcotest.(check int) "third" 3 (pop_payload q);
  Alcotest.(check bool) "empty" true (E.is_empty q);
  Alcotest.(check bool) "pop on empty" false (E.pop q)

let test_tag_tiebreak () =
  let q = E.create () in
  E.push q ~key:1. ~tag:5 ~payload:50;
  E.push q ~key:1. ~tag:2 ~payload:20;
  Alcotest.(check bool) "popped" true (E.pop q);
  Alcotest.(check int) "tag" 2 (E.tag q);
  Alcotest.(check int) "payload" 20 (E.payload q)

let test_peek () =
  let q = E.create () in
  E.push q ~key:1. ~tag:0 ~payload:42;
  Alcotest.(check (float 0.)) "key" 1. (E.peek_key q);
  Alcotest.(check bool) "pop_before refuses a later key" false (E.pop_before q ~limit:0.5);
  Alcotest.(check bool) "pop_before takes an earlier key" true (E.pop_before q ~limit:1.);
  Alcotest.(check int) "value" 42 (E.payload q)

let test_heap_property_random () =
  let prop (keys : float list) =
    let q = E.create () in
    List.iteri (fun i k -> E.push q ~key:k ~tag:i ~payload:i) keys;
    let rec drain acc = if E.pop q then drain ((E.key q, E.tag q) :: acc) else List.rev acc in
    let popped = drain [] in
    let expected =
      List.mapi (fun i k -> (k, i)) keys
      |> List.sort (fun (k1, t1) (k2, t2) ->
             match Float.compare k1 k2 with 0 -> Int.compare t1 t2 | c -> c)
    in
    popped = expected
  in
  QCheck.Test.make ~name:"pqueue pops in sorted (key, tag) order" ~count:200
    QCheck.(list (float_range 0. 100.))
    prop
  |> QCheck_alcotest.to_alcotest

let test_interleaved_push_pop () =
  let q = E.create () in
  E.push q ~key:5. ~tag:0 ~payload:5;
  E.push q ~key:1. ~tag:1 ~payload:1;
  Alcotest.(check int) "min" 1 (pop_payload q);
  E.push q ~key:0.5 ~tag:2 ~payload:0;
  E.push q ~key:10. ~tag:3 ~payload:10;
  Alcotest.(check int) "new min" 0 (pop_payload q);
  Alcotest.(check int) "then 5" 5 (pop_payload q);
  Alcotest.(check int) "then 10" 10 (pop_payload q)

(* ------------------------------------------------------------------ *)
(* Pqueue.Iheap: the indexed heap behind the driver's pending sets. *)

module I = Pqueue.Iheap

(* Strict order over ids keyed by [keys], ties by smaller id. *)
let key_less (keys : int array) a b =
  match Int.compare keys.(a) keys.(b) with 0 -> a < b | c -> c < 0

let sort_key_id l =
  List.sort (fun (k1, i1) (k2, i2) -> match Int.compare k1 k2 with 0 -> Int.compare i1 i2 | c -> c) l

(* A fresh position table for ids [0..n-1]. *)
let pos_for n = Array.make n (-1)

let rec drain_sorted keys ~pos q acc =
  match I.min_id q with
  | -1 -> List.rev acc
  | id ->
      ignore (I.remove q ~less:key_less keys ~pos ~id);
      drain_sorted keys ~pos q ((keys.(id), id) :: acc)

(* Model: draining the minimum must equal the (key, id)-sorted input. *)
let test_indexed_sorted_model () =
  let prop (keys : int list) =
    let keys = Array.of_list keys in
    let q = I.create () and pos = pos_for (Array.length keys) in
    Array.iteri (fun id _ -> I.add q ~less:key_less keys ~pos ~id) keys;
    I.invariant [| q |] ~less:key_less keys ~pos
    && drain_sorted keys ~pos q [] = sort_key_id (Array.to_list (Array.mapi (fun id k -> (k, id)) keys))
  in
  QCheck.Test.make ~name:"indexed pops in sorted (key, id) order" ~count:300
    QCheck.(list small_int)
    prop
  |> QCheck_alcotest.to_alcotest

(* Removing an arbitrary subset of ids (the rejection path) preserves the
   invariant and leaves exactly the survivors, still in order. *)
let test_indexed_arbitrary_removal () =
  let prop (entries : (int * bool) list) =
    let entries = Array.of_list entries in
    let keys = Array.map fst entries in
    let q = I.create () and pos = pos_for (Array.length keys) in
    Array.iteri (fun id _ -> I.add q ~less:key_less keys ~pos ~id) entries;
    let ok = ref true in
    Array.iteri
      (fun id (_, remove) ->
        if remove then begin
          if not (I.remove q ~less:key_less keys ~pos ~id) then ok := false;
          if not (I.invariant [| q |] ~less:key_less keys ~pos) then ok := false;
          if I.mem q ~pos ~id then ok := false;
          if I.remove q ~less:key_less keys ~pos ~id then ok := false
        end)
      entries;
    let survivors =
      Array.to_list entries
      |> List.mapi (fun id (k, remove) -> (k, id, remove))
      |> List.filter_map (fun (k, id, remove) -> if remove then None else Some (k, id))
    in
    !ok && drain_sorted keys ~pos q [] = sort_key_id survivors
  in
  QCheck.Test.make ~name:"indexed removal of arbitrary ids preserves invariant" ~count:300
    QCheck.(list (pair small_int bool))
    prop
  |> QCheck_alcotest.to_alcotest

(* Mixed op sequences keep the structural invariant at every step. *)
let test_indexed_op_sequence_invariant () =
  let prop (ops : (int * int) list) =
    let keys = Array.of_list (List.map snd ops) in
    let q = I.create () and pos = pos_for (Array.length keys) in
    let next_id = ref 0 and live = ref 0 in
    List.for_all
      (fun (which, _) ->
        (match which mod 3 with
        | 0 | 1 ->
            I.add q ~less:key_less keys ~pos ~id:!next_id;
            incr next_id;
            incr live
        | _ -> (
            match I.min_id q with
            | -1 -> ()
            | id ->
                ignore (I.remove q ~less:key_less keys ~pos ~id);
                decr live));
        I.invariant [| q |] ~less:key_less keys ~pos && I.size q = !live)
      ops
  in
  QCheck.Test.make ~name:"indexed invariant holds under mixed op sequences" ~count:300
    QCheck.(list (pair small_int small_int))
    prop
  |> QCheck_alcotest.to_alcotest

let test_indexed_duplicate_id_rejected () =
  let keys = Array.make 8 0 in
  let q = I.create () and pos = pos_for 8 in
  I.add q ~less:key_less keys ~pos ~id:3;
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Pqueue.Iheap.add: id 3 already present") (fun () ->
      I.add q ~less:key_less keys ~pos ~id:3);
  Alcotest.check_raises "negative id" (Invalid_argument "Pqueue.Iheap.add: negative id")
    (fun () -> I.add q ~less:key_less keys ~pos ~id:(-1))

let test_indexed_min_elt_and_iter () =
  let keys = [| 5; 2; 9; 2 |] in
  let q = I.create () and pos = pos_for 4 in
  Alcotest.(check int) "empty min" (-1) (I.min_id q);
  Array.iteri (fun id _ -> I.add q ~less:key_less keys ~pos ~id) keys;
  (* Equal keys 2 at ids 1 and 3: the id breaks the tie. *)
  Alcotest.(check int) "min id" 1 (I.min_id q);
  Alcotest.(check int) "size" 4 (I.size q);
  let seen = ref 0 in
  I.iter q ~f:(fun _ -> incr seen);
  Alcotest.(check int) "iter visits all" 4 !seen

(* Two heaps over one position table, as the flat state keeps one table
   per order for all machines: each heap answers only for its own ids,
   and asking the wrong heap changes nothing. *)
let test_indexed_shared_pos () =
  let keys = [| 4; 1; 3; 1; 2; 0 |] in
  let a = I.create () and b = I.create () and pos = pos_for 6 in
  List.iter (fun id -> I.add a ~less:key_less keys ~pos ~id) [ 0; 2; 4 ];
  List.iter (fun id -> I.add b ~less:key_less keys ~pos ~id) [ 1; 3; 5 ];
  let heaps = [| a; b |] in
  Alcotest.(check bool) "shared invariant" true (I.invariant heaps ~less:key_less keys ~pos);
  let before = Array.copy pos in
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "a does not hold %d" id) false (I.mem a ~pos ~id);
      Alcotest.(check bool)
        (Printf.sprintf "remove %d from a" id)
        false
        (I.remove a ~less:key_less keys ~pos ~id))
    [ 1; 3; 5 ];
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "b does not hold %d" id) false (I.mem b ~pos ~id);
      Alcotest.(check bool)
        (Printf.sprintf "remove %d from b" id)
        false
        (I.remove b ~less:key_less keys ~pos ~id))
    [ 0; 2; 4 ];
  Alcotest.(check (array int)) "column unchanged" before pos;
  Alcotest.check_raises "held by the other heap"
    (Invalid_argument "Pqueue.Iheap.add: id 1 already present") (fun () ->
      I.add a ~less:key_less keys ~pos ~id:1);
  Alcotest.(check (array int)) "column unchanged by a refused add" before pos;
  Alcotest.(check bool) "remove from its own heap" true (I.remove b ~less:key_less keys ~pos ~id:5);
  Alcotest.(check int) "next min of b" 1 (I.min_id b);
  Alcotest.(check int) "min of a" 4 (I.min_id a);
  Alcotest.(check bool) "invariant after remove" true (I.invariant heaps ~less:key_less keys ~pos);
  (* A registration no heap accounts for breaks the count. *)
  pos.(5) <- 0;
  Alcotest.(check bool) "stray registration" false (I.invariant heaps ~less:key_less keys ~pos);
  pos.(5) <- -1;
  (* Neither does a heap that holds nothing of its own see one. *)
  Alcotest.(check bool) "each heap alone undercounts" false
    (I.invariant [| a |] ~less:key_less keys ~pos)

let suite =
  [
    Alcotest.test_case "basic order" `Quick test_basic_order;
    Alcotest.test_case "tag tiebreak" `Quick test_tag_tiebreak;
    Alcotest.test_case "peek" `Quick test_peek;
    test_heap_property_random ();
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved_push_pop;
    test_indexed_sorted_model ();
    test_indexed_arbitrary_removal ();
    test_indexed_op_sequence_invariant ();
    Alcotest.test_case "indexed id validation" `Quick test_indexed_duplicate_id_rejected;
    Alcotest.test_case "indexed min/iter/clear" `Quick test_indexed_min_elt_and_iter;
    Alcotest.test_case "indexed heaps sharing a position table" `Quick test_indexed_shared_pos;
  ]
