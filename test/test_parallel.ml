(* Pool.parallel_map on pools of several widths: input-ordered results
   and worker-exception re-raise — the contract the experiments and the
   bench harness lean on. *)

module Pool = Sched_stats.Pool

let map_array ~domains f a = Pool.with_pool ~domains (fun pool -> Pool.parallel_map pool f a)

let test_input_order () =
  let a = Array.init 101 (fun i -> i) in
  let expected = Array.map (fun x -> x * x) a in
  List.iter
    (fun domains ->
      let got = map_array ~domains (fun x -> x * x) a in
      Alcotest.(check (array int)) (Printf.sprintf "domains=%d" domains) expected got)
    [ 1; 2; 4; 8 ]

let test_uneven_work_still_ordered () =
  (* Vary per-item cost so domains finish out of order. *)
  let a = Array.init 64 (fun i -> i) in
  let f x =
    let spin = if x mod 7 = 0 then 20_000 else 10 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := (!acc + (x * k)) mod 1_000_003
    done;
    (x, !acc)
  in
  let seq = Array.map f a in
  let par = map_array ~domains:4 f a in
  Alcotest.(check bool) "ordered despite uneven work" true (seq = par)

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (map_array ~domains:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |] (map_array ~domains:4 (fun x -> x * x) [| 3 |])

let test_exception_reraised () =
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "worker failure surfaces (domains=%d)" domains)
        (Failure "boom-37")
        (fun () ->
          ignore
            (map_array ~domains
               (fun x -> if x = 37 then failwith "boom-37" else x)
               (Array.init 64 (fun i -> i)))))
    [ 1; 4 ]

let test_map_list () =
  let l = List.init 33 (fun i -> i) in
  Alcotest.(check (list int)) "map_list ordered" (List.map (fun x -> x + 1) l)
    (Pool.with_pool ~domains:4 (fun pool -> Pool.parallel_map_list pool (fun x -> x + 1) l))

let suite =
  [
    Alcotest.test_case "map_array input order" `Quick test_input_order;
    Alcotest.test_case "ordered under uneven work" `Quick test_uneven_work_still_ordered;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "worker exception re-raised" `Quick test_exception_reraised;
    Alcotest.test_case "map_list" `Quick test_map_list;
  ]