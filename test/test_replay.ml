(* Determinism and replay: the same seed must reproduce the same instance
   and the same run, byte for byte, and running through
   [Sched_stats.Parallel] must be observationally identical to running
   sequentially. *)

open Sched_model
module PR = Sched_experiments.Policy_registry

let dump e inst = Serialize.schedule_to_string (fst (e.PR.run inst))

let test_same_seed_same_instance () =
  List.iter
    (fun seed ->
      let a = Test_util.random_instance ~weighted:true ~seed ~n:30 ~m:3 () in
      let b = Test_util.random_instance ~weighted:true ~seed ~n:30 ~m:3 () in
      Alcotest.(check string)
        (Printf.sprintf "instance seed %d" seed)
        (Serialize.instance_to_string a) (Serialize.instance_to_string b);
      let g = Sched_workload.Suite.flow_uniform ~n:25 ~m:3 in
      Alcotest.(check string)
        (Printf.sprintf "generated instance seed %d" seed)
        (Serialize.instance_to_string (Sched_workload.Gen.instance g ~seed))
        (Serialize.instance_to_string (Sched_workload.Gen.instance g ~seed)))
    [ 1; 7; 42 ]

let test_rerun_byte_identical () =
  let insts =
    [
      Test_util.random_instance ~seed:5 ~n:25 ~m:3 ();
      Test_util.random_instance ~weighted:true ~restricted:true ~seed:6 ~n:25 ~m:3 ();
    ]
  in
  List.iter
    (fun (e : PR.entry) ->
      List.iter
        (fun inst ->
          Alcotest.(check string)
            (Printf.sprintf "%s replay on %s" e.name inst.Instance.name)
            (dump e inst) (dump e inst))
        insts)
    PR.all

(* Fisher–Yates with the repo's own deterministic RNG. *)
let permute ~seed xs =
  let a = Array.of_list xs in
  let rng = Sched_stats.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Sched_stats.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let test_instance_order_independent () =
  (* Instance.create canonicalizes job order with a total comparator
     (release, then id), so permuting the input job list — including jobs
     with duplicate release times, where an unstable or partial sort
     would betray input order — must yield a byte-identical instance and
     byte-identical schedules. *)
  let jobs =
    List.mapi
      (fun id (release, size) ->
        Job.create ~id ~release ~sizes:[| size; 2. *. size |] ())
      [ (0., 2.); (0., 1.); (1., 4.); (1., 0.5); (1., 3.); (2., 1.5); (0., 0.25) ]
  in
  let machines = Machine.fleet 2 in
  let canonical = Instance.create ~name:"perm" ~machines ~jobs () in
  let reference = Serialize.instance_to_string canonical in
  let e = Option.get (PR.find "flow-reject") in
  let schedule_ref = dump e canonical in
  List.iter
    (fun seed ->
      let shuffled = Instance.create ~name:"perm" ~machines ~jobs:(permute ~seed jobs) () in
      Alcotest.(check string)
        (Printf.sprintf "instance, permutation seed %d" seed)
        reference
        (Serialize.instance_to_string shuffled);
      Alcotest.(check string)
        (Printf.sprintf "schedule, permutation seed %d" seed)
        schedule_ref (dump e shuffled))
    [ 11; 23; 97 ]

let test_summary_order_independent () =
  (* Summary.of_array sorts internally with a total order on floats, so
     sample order cannot leak into any reported statistic. *)
  let samples = [ 3.5; 1.25; 3.5; 0.5; 2.; 2.; 7.75; 1.25; 3.5 ] in
  let show s =
    Format.asprintf "%a" Sched_stats.Summary.pp s
  in
  let reference = show (Sched_stats.Summary.of_array (Array.of_list samples)) in
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "summary, permutation seed %d" seed)
        reference
        (show (Sched_stats.Summary.of_array (Array.of_list (permute ~seed samples)))))
    [ 3; 19; 71 ]

let test_parallel_equals_sequential_runs () =
  let insts =
    Array.init 8 (fun k ->
        Test_util.random_instance ~weighted:(k mod 2 = 0) ~seed:(500 + k) ~n:30 ~m:3 ())
  in
  let e = Option.get (PR.find "flow-reject") in
  let sequential = Array.map (dump e) insts in
  let parallel =
    Sched_stats.Pool.with_pool ~domains:4 (fun pool ->
        Sched_stats.Pool.parallel_map pool (dump e) insts)
  in
  Array.iteri
    (fun k s ->
      Alcotest.(check string) (Printf.sprintf "instance %d" k) s parallel.(k))
    sequential

let suite =
  [
    Alcotest.test_case "same seed, same instance" `Quick test_same_seed_same_instance;
    Alcotest.test_case "rerun byte-identical (all policies)" `Quick test_rerun_byte_identical;
    Alcotest.test_case "instance independent of job input order" `Quick
      test_instance_order_independent;
    Alcotest.test_case "summary independent of sample order" `Quick
      test_summary_order_independent;
    Alcotest.test_case "parallel == sequential schedules" `Quick
      test_parallel_equals_sequential_runs;
  ]