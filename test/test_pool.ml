(* Pool: the persistent work-sharing domain pool.  The properties pinned
   here are the determinism contract the experiments and the bench lean
   on: parallel_map ≡ Array.map for every (size, chunk, domains) choice,
   nested submission is safe and stays on one pool, exceptions surface
   lowest-input-index-first, and shutdown is orderly. *)

module Pool = Sched_stats.Pool

let mix x = ((x * 2654435761) lxor (x lsr 7)) land 0xFFFF

(* --- qcheck: parallel_map ≡ Array.map over random shapes -------------- *)

let qcheck_map_equiv =
  QCheck.Test.make ~count:60 ~name:"parallel_map ≡ Array.map (size/chunk/domains)"
    QCheck.(triple (int_bound 200) (int_range 1 17) (int_range 1 6))
    (fun (n, chunk_size, domains) ->
      let a = Array.init n (fun i -> i) in
      let expected = Array.map mix a in
      Pool.with_pool ~domains (fun pool ->
          Pool.parallel_map ~chunk_size pool mix a = expected))

(* parallel_map's chunked path is the pool's parallel_for: each index is
   applied exactly once. *)
let qcheck_for_equiv =
  QCheck.Test.make ~count:40 ~name:"parallel_for touches each index once"
    QCheck.(pair (int_bound 150) (int_range 1 5))
    (fun (n, domains) ->
      let hits = Array.make n 0 in
      Pool.with_pool ~domains (fun pool ->
          ignore (Pool.parallel_map pool (fun i -> hits.(i) <- hits.(i) + mix i) (Array.init n Fun.id)));
      hits = Array.init n (fun i -> mix i))

(* --- ordering and shapes ---------------------------------------------- *)

let test_map_list () =
  let l = List.init 57 (fun i -> i) in
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (list int)) "list ordered" (List.map mix l)
        (Pool.parallel_map_list pool mix l))

let test_empty_singleton () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map pool mix [||]);
      Alcotest.(check (array int)) "singleton" [| mix 5 |] (Pool.parallel_map pool mix [| 5 |]))

let test_uneven_work_ordered () =
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
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check bool) "ordered despite uneven work" true
        (Pool.parallel_map ~chunk_size:3 pool f a = seq))

(* --- reentrancy: nested regions share one pool ------------------------- *)

let test_nested_submission () =
  let expected =
    Array.init 8 (fun i -> Array.init 16 (fun j -> mix ((i * 16) + j)))
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          (* Each task records the ambient pool's size in its own slot;
             the assertions run on the calling domain after the region,
             because Alcotest's reporter is not safe to call from several
             domains at once. *)
          let ambient_sizes = Array.make 8 0 in
          let got =
            Pool.parallel_map pool
              (fun i ->
                (* Inner region without an explicit pool: must resolve to
                   the ambient pool, i.e. the enclosing one. *)
                ambient_sizes.(i) <- Pool.size (Pool.ambient ());
                Pool.parallel_map (Pool.ambient ()) (fun j -> mix ((i * 16) + j))
                  (Array.init 16 (fun j -> j)))
              (Array.init 8 (fun i -> i))
          in
          Alcotest.(check (array int))
            (Printf.sprintf "ambient size inside every task (domains=%d)" domains)
            (Array.make 8 domains) ambient_sizes;
          Alcotest.(check bool) (Printf.sprintf "nested ≡ sequential (domains=%d)" domains)
            true (got = expected)))
    [ 1; 2; 4 ]

let test_deep_nesting () =
  Pool.with_pool ~domains:3 (fun pool ->
      let got =
        Pool.parallel_map pool
          (fun i ->
            Pool.parallel_map pool
              (fun j -> Array.fold_left ( + ) 0 (Pool.parallel_map pool mix (Array.init 5 (fun k -> i + j + k))))
              (Array.init 4 (fun j -> j)))
          (Array.init 6 (fun i -> i))
      in
      let expected =
        Array.init 6 (fun i ->
            Array.init 4 (fun j ->
                Array.fold_left ( + ) 0 (Array.init 5 (fun k -> mix (i + j + k)))))
      in
      Alcotest.(check bool) "three levels deep" true (got = expected))

let test_create_validates_width () =
  List.iter
    (fun domains ->
      match Pool.with_pool ~domains ignore with
      | () -> Alcotest.failf "domains=%d accepted" domains
      | exception Invalid_argument _ -> ())
    [ 0; -4 ]

(* --- exception propagation --------------------------------------------- *)

let test_lowest_index_exception () =
  List.iter
    (fun (domains, chunk_size) ->
      Alcotest.check_raises
        (Printf.sprintf "lowest raising index wins (domains=%d chunk=%d)" domains chunk_size)
        (Failure "boom-13")
        (fun () ->
          Pool.with_pool ~domains (fun pool ->
              ignore
                (Pool.parallel_map ~chunk_size pool
                   (fun x -> if x = 13 || x = 37 || x = 59 then failwith (Printf.sprintf "boom-%d" x) else x)
                   (Array.init 64 (fun i -> i))))))
    [ (1, 4); (2, 1); (4, 3); (4, 64) ]

let test_nested_exception_propagates () =
  Alcotest.check_raises "inner region failure surfaces" (Failure "inner-2") (fun () ->
      Pool.with_pool ~domains:4 (fun pool ->
          ignore
            (Pool.parallel_map pool
               (fun i ->
                 Pool.parallel_map pool
                   (fun j -> if i = 2 && j = 2 then failwith "inner-2" else j)
                   (Array.init 4 (fun j -> j)))
               (Array.init 8 (fun i -> i)))))

let test_pool_survives_failure () =
  Pool.with_pool ~domains:2 (fun pool ->
      (try ignore (Pool.parallel_map pool (fun _ -> failwith "x") [| 1; 2; 3 |])
       with Failure _ -> ());
      Alcotest.(check (array int)) "usable after a failed batch" [| mix 0; mix 1 |]
        (Pool.parallel_map pool mix [| 0; 1 |]))

(* --- lifecycle ---------------------------------------------------------- *)

let test_shutdown_semantics () =
  (* with_pool shuts the pool down on the way out. *)
  let pool = Pool.with_pool ~domains:3 Fun.id in
  Alcotest.(check int) "size" 3 (Pool.size pool);
  Alcotest.check_raises "submit after shutdown" (Invalid_argument "Sched_stats.Pool: pool is shut down")
    (fun () -> ignore (Pool.parallel_map pool mix (Array.init 8 (fun i -> i))))

let test_with_pool_returns () =
  Alcotest.(check int) "result" 42 (Pool.with_pool ~domains:2 (fun _ -> 42))

let test_default_pool_resize () =
  let saved = Pool.size (Pool.default ()) in
  Pool.set_default_domains 2;
  Alcotest.(check int) "resized to 2" 2 (Pool.size (Pool.default ()));
  Pool.set_default_domains 3;
  Alcotest.(check int) "resized to 3" 3 (Pool.size (Pool.default ()));
  Alcotest.(check (array int)) "default pool maps" (Array.init 9 (fun i -> mix i))
    (Pool.parallel_map (Pool.ambient ()) mix (Array.init 9 (fun i -> i)));
  Pool.set_default_domains saved;
  Alcotest.(check int) "restored" saved (Pool.size (Pool.default ()))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_map_equiv;
    QCheck_alcotest.to_alcotest qcheck_for_equiv;
    Alcotest.test_case "map_list ordered" `Quick test_map_list;
    Alcotest.test_case "empty and singleton" `Quick test_empty_singleton;
    Alcotest.test_case "ordered under uneven work" `Quick test_uneven_work_ordered;
    Alcotest.test_case "nested submission shares the pool" `Quick test_nested_submission;
    Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
    Alcotest.test_case "create validates width" `Quick test_create_validates_width;
    Alcotest.test_case "lowest-index exception wins" `Quick test_lowest_index_exception;
    Alcotest.test_case "nested exception propagates" `Quick test_nested_exception_propagates;
    Alcotest.test_case "pool survives a failed batch" `Quick test_pool_survives_failure;
    Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
    Alcotest.test_case "with_pool returns result" `Quick test_with_pool_returns;
    Alcotest.test_case "default pool resize" `Quick test_default_pool_resize;
  ]
