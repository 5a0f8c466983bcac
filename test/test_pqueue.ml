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
  Alcotest.(check int) "size unchanged" 1 (E.size q);
  Alcotest.(check bool) "pop_before refuses a later key" false (E.pop_before q ~limit:0.5);
  Alcotest.(check bool) "pop_before takes an earlier key" true (E.pop_before q ~limit:1.);
  Alcotest.(check int) "value" 42 (E.payload q)

let test_clear () =
  let q = E.create () in
  for i = 1 to 10 do
    E.push q ~key:(float_of_int i) ~tag:i ~payload:i
  done;
  E.clear q;
  Alcotest.(check bool) "cleared" true (E.is_empty q)

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

let rec drain_sorted keys q acc =
  match I.min_id q with
  | -1 -> List.rev acc
  | id ->
      ignore (I.remove q ~id);
      drain_sorted keys q ((keys.(id), id) :: acc)

(* Model: draining the minimum must equal the (key, id)-sorted input. *)
let test_indexed_sorted_model () =
  let prop (keys : int list) =
    let keys = Array.of_list keys in
    let q = I.create ~less:(key_less keys) () in
    Array.iteri (fun id _ -> I.add q ~id) keys;
    I.invariant q
    && drain_sorted keys q [] = sort_key_id (Array.to_list (Array.mapi (fun id k -> (k, id)) keys))
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
    let q = I.create ~less:(key_less keys) () in
    Array.iteri (fun id _ -> I.add q ~id) entries;
    let ok = ref true in
    Array.iteri
      (fun id (_, remove) ->
        if remove then begin
          if not (I.remove q ~id) then ok := false;
          if not (I.invariant q) then ok := false;
          if I.mem q ~id then ok := false;
          if I.remove q ~id then ok := false
        end)
      entries;
    let survivors =
      Array.to_list entries
      |> List.mapi (fun id (k, remove) -> (k, id, remove))
      |> List.filter_map (fun (k, id, remove) -> if remove then None else Some (k, id))
    in
    !ok && drain_sorted keys q [] = sort_key_id survivors
  in
  QCheck.Test.make ~name:"indexed removal of arbitrary ids preserves invariant" ~count:300
    QCheck.(list (pair small_int bool))
    prop
  |> QCheck_alcotest.to_alcotest

(* Mixed op sequences keep the structural invariant at every step. *)
let test_indexed_op_sequence_invariant () =
  let prop (ops : (int * int) list) =
    let keys = Array.of_list (List.map snd ops) in
    let q = I.create ~less:(key_less keys) () in
    let next_id = ref 0 and live = ref 0 in
    List.for_all
      (fun (which, _) ->
        (match which mod 3 with
        | 0 | 1 ->
            I.add q ~id:!next_id;
            incr next_id;
            incr live
        | _ -> (
            match I.min_id q with
            | -1 -> ()
            | id ->
                ignore (I.remove q ~id);
                decr live));
        I.invariant q && I.size q = !live)
      ops
  in
  QCheck.Test.make ~name:"indexed invariant holds under mixed op sequences" ~count:300
    QCheck.(list (pair small_int small_int))
    prop
  |> QCheck_alcotest.to_alcotest

let test_indexed_duplicate_id_rejected () =
  let q = I.create ~less:(key_less (Array.make 8 0)) () in
  I.add q ~id:3;
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Pqueue.Iheap.add: id 3 already present") (fun () -> I.add q ~id:3);
  Alcotest.check_raises "negative id" (Invalid_argument "Pqueue.Iheap.add: negative id")
    (fun () -> I.add q ~id:(-1))

let test_indexed_min_elt_and_iter () =
  let keys = [| 5; 2; 9; 2 |] in
  let q = I.create ~less:(key_less keys) () in
  Alcotest.(check int) "empty min" (-1) (I.min_id q);
  Array.iteri (fun id _ -> I.add q ~id) keys;
  (* Equal keys 2 at ids 1 and 3: the id breaks the tie. *)
  Alcotest.(check int) "min id" 1 (I.min_id q);
  Alcotest.(check int) "size" 4 (I.size q);
  let seen = ref 0 in
  I.iter q ~f:(fun _ -> incr seen);
  Alcotest.(check int) "iter visits all" 4 !seen;
  I.clear q;
  Alcotest.(check bool) "cleared" true (I.is_empty q && I.invariant q)

let suite =
  [
    Alcotest.test_case "basic order" `Quick test_basic_order;
    Alcotest.test_case "tag tiebreak" `Quick test_tag_tiebreak;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "clear" `Quick test_clear;
    test_heap_property_random ();
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved_push_pop;
    test_indexed_sorted_model ();
    test_indexed_arbitrary_removal ();
    test_indexed_op_sequence_invariant ();
    Alcotest.test_case "indexed id validation" `Quick test_indexed_duplicate_id_rejected;
    Alcotest.test_case "indexed min/iter/clear" `Quick test_indexed_min_elt_and_iter;
  ]
