open Sched_stats

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.float a <> Rng.float b)

let test_float_range_unit () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_int_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_int_covers_all_residues () =
  let rng = Rng.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_split_independence () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* Consuming the child must not affect the parent's continuation. *)
  let parent' = Rng.copy parent in
  for _ = 1 to 10 do
    ignore (Rng.float child)
  done;
  Alcotest.(check (float 0.)) "parent unaffected by child" (Rng.float parent') (Rng.float parent)

let test_copy () =
  let a = Rng.create 11 in
  ignore (Rng.float a);
  let b = Rng.copy a in
  Alcotest.(check (float 0.)) "copy continues identically" (Rng.float a) (Rng.float b)

let test_exponential_positive () =
  let rng = Rng.create 13 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng 2. > 0.)
  done

let test_exponential_mean () =
  let rng = Rng.create 17 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 0.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 2" true (Float.abs (mean -. 2.) < 0.1)

let test_uniform_mean () =
  let rng = Rng.create 29 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float_range rng 2. 6.
  done;
  Alcotest.(check bool) "mean ~ 4" true (Float.abs ((!sum /. float_of_int n) -. 4.) < 0.05)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "float in unit interval" `Quick test_float_range_unit;
    Alcotest.test_case "int in range" `Quick test_int_range;
    Alcotest.test_case "int covers residues" `Quick test_int_covers_all_residues;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
  ]

let test_parallel_map_matches_sequential () =
  let input = Array.init 50 Fun.id in
  let f x = x * x in
  Alcotest.(check (array int)) "same results"
    (Array.map f input)
    (Pool.with_pool ~domains:4 (fun pool -> Pool.parallel_map pool f input))

let test_parallel_map_order () =
  let l = [ 5; 1; 9; 3 ] in
  Alcotest.(check (list int)) "order preserved" [ 10; 2; 18; 6 ]
    (Pool.with_pool ~domains:3 (fun pool -> Pool.parallel_map_list pool (fun x -> 2 * x) l))

let test_parallel_exception () =
  Alcotest.(check bool) "worker exception propagates" true
    (try
       ignore
         (Pool.with_pool ~domains:2 (fun pool ->
              Pool.parallel_map pool (fun x -> if x = 7 then failwith "boom" else x)
                (Array.init 16 Fun.id)));
       false
     with Failure _ -> true)

let test_parallel_empty_and_single () =
  let pool = Pool.ambient () in
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map pool (fun x -> x) [||]);
  Alcotest.(check (list int)) "singleton" [ 4 ] (Pool.parallel_map_list pool (fun x -> x + 1) [ 3 ])

let suite =
  suite
  @ [
      Alcotest.test_case "parallel map matches sequential" `Quick
        test_parallel_map_matches_sequential;
      Alcotest.test_case "parallel map order" `Quick test_parallel_map_order;
      Alcotest.test_case "parallel exception" `Quick test_parallel_exception;
      Alcotest.test_case "parallel empty/single" `Quick test_parallel_empty_and_single;
    ]
