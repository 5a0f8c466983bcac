open Sched_model
open Sched_workload
open Sched_stats

let test_gen_determinism () =
  let gen = Suite.flow_pareto ~n:40 ~m:3 in
  let a = Gen.instance gen ~seed:9 and b = Gen.instance gen ~seed:9 in
  Array.iter2
    (fun (x : Job.t) (y : Job.t) ->
      Alcotest.(check (float 0.)) "same release" x.Job.release y.Job.release;
      Alcotest.(check (float 0.)) "same size" (Job.size x 0) (Job.size y 0))
    (Instance.jobs_by_release a) (Instance.jobs_by_release b)

let test_gen_seed_changes () =
  let gen = Suite.flow_uniform ~n:40 ~m:2 in
  let a = Gen.instance gen ~seed:1 and b = Gen.instance gen ~seed:2 in
  let total inst =
    Array.fold_left (fun acc (j : Job.t) -> acc +. Job.size j 0) 0. (Instance.jobs_by_release inst)
  in
  Alcotest.(check bool) "different totals" true (total a <> total b)

(* [Gen.jobs] hands jobs out as they are drawn, so id order must already
   be release order, for every arrival kind. *)
let test_releases_sorted_nonneg () =
  List.iter
    (fun gen ->
      let prev = ref (-1.) and next_id = ref 0 in
      Seq.iter
        (fun (j : Job.t) ->
          Alcotest.(check int) "ids in order" !next_id j.Job.id;
          Alcotest.(check bool) "nonneg" true (j.Job.release >= 0.);
          Alcotest.(check bool) "sorted" true (j.Job.release >= !prev);
          incr next_id;
          prev := j.Job.release)
        (Gen.jobs gen ~seed:3);
      Alcotest.(check int) "all generated" gen.Gen.n !next_id)
    (Suite.all_flow ~n:50 ~m:3
    @ [
        Gen.make ~arrivals:(Gen.Bursty { rate = 2.; burst_every = 3.; burst_size = 5 })
          ~n:60 ~m:2 ();
        Gen.make ~arrivals:(Gen.Bursty { rate = 1.; burst_every = 2.; burst_size = 0 })
          ~n:20 ~m:2 ();
        Gen.make ~arrivals:(Gen.Diurnal { base_rate = 1.; amplitude = 0.8; period = 50. })
          ~n:60 ~m:2 ();
        Gen.make ~arrivals:Gen.All_at_zero ~n:10 ~m:2 ();
        Gen.make ~deadlines:(Gen.Slot_laxity { min_slots = 2; max_slots = 9 }) ~n:30 ~m:2 ();
      ])

let test_batched_arrivals () =
  let gen =
    Gen.make ~arrivals:(Gen.Batched { every = 5.; size = 4 }) ~n:12 ~m:1 ()
  in
  let inst = Gen.instance gen ~seed:1 in
  let jobs = Instance.jobs_by_release inst in
  Alcotest.(check (float 0.)) "first batch" 0. jobs.(0).Job.release;
  Alcotest.(check (float 0.)) "second batch" 5. jobs.(4).Job.release;
  Alcotest.(check (float 0.)) "third batch" 10. jobs.(8).Job.release

let test_all_at_zero () =
  let gen = Gen.make ~arrivals:Gen.All_at_zero ~n:10 ~m:1 () in
  let inst = Gen.instance gen ~seed:1 in
  Array.iter
    (fun (j : Job.t) -> Alcotest.(check (float 0.)) "zero" 0. j.Job.release)
    (Instance.jobs_by_release inst)

let test_slot_laxity_alignment () =
  let gen = Suite.deadline_energy ~n:40 ~m:2 ~alpha:3. in
  let inst = Gen.instance gen ~seed:6 in
  Array.iter
    (fun (j : Job.t) ->
      let d = Option.get j.Job.deadline in
      Alcotest.(check bool) "integer release" true (Float.is_integer j.Job.release);
      Alcotest.(check bool) "integer deadline" true (Float.is_integer d);
      Alcotest.(check bool) "span fits min size" true
        (d -. j.Job.release >= Float.ceil (Job.min_size j) -. 1e-9))
    (Instance.jobs_by_release inst)

let test_laxity_deadlines () =
  let gen =
    Gen.make ~deadlines:(Gen.Laxity (Dist.uniform ~lo:2. ~hi:4.)) ~n:30 ~m:2 ()
  in
  let inst = Gen.instance gen ~seed:2 in
  Array.iter
    (fun (j : Job.t) ->
      let d = Option.get j.Job.deadline in
      Alcotest.(check bool) "deadline after release + pmin" true
        (d >= j.Job.release +. Job.min_size j -. 1e-9))
    (Instance.jobs_by_release inst)

let test_weights () =
  let gen = Suite.weighted_energy ~n:30 ~m:2 ~alpha:3. in
  let inst = Gen.instance gen ~seed:2 in
  Array.iter
    (fun (j : Job.t) -> Alcotest.(check bool) "weight >= 1" true (j.Job.weight >= 1.))
    (Instance.jobs_by_release inst)

(* --- shapes --- *)

let rng () = Rng.create 77

let shape_sizes shape rng ~base ~m =
  let v = Array.make m 0. in
  Shape.fill shape rng ~base v;
  v

let test_shape_identical () =
  let v = shape_sizes Shape.identical (rng ()) ~base:3. ~m:4 in
  Array.iter (fun p -> Alcotest.(check (float 0.)) "identical" 3. p) v

let test_shape_related () =
  let v = shape_sizes (Shape.related ~speeds:[| 1.; 2. |]) (rng ()) ~base:4. ~m:2 in
  Alcotest.(check (float 1e-12)) "slow machine" 4. v.(0);
  Alcotest.(check (float 1e-12)) "fast machine" 2. v.(1)

let test_shape_unrelated_spread () =
  let shape = Shape.unrelated ~spread:2. in
  let r = rng () in
  for _ = 1 to 50 do
    let v = shape_sizes shape r ~base:10. ~m:3 in
    Array.iter (fun p -> Alcotest.(check bool) "within spread" true (p >= 5. && p <= 20.)) v
  done

let test_shape_restricted_always_eligible () =
  let shape = Shape.restricted ~eligible_prob:0.2 in
  let r = rng () in
  for _ = 1 to 100 do
    let v = shape_sizes shape r ~base:1. ~m:5 in
    Alcotest.(check bool) "one finite" true (Array.exists Float.is_finite v)
  done

let test_shape_clustered () =
  let shape = Shape.clustered ~clusters:2 ~penalty:3. in
  let r = rng () in
  for _ = 1 to 50 do
    let v = shape_sizes shape r ~base:2. ~m:4 in
    Array.iter
      (fun p -> Alcotest.(check bool) "base or penalized" true (p = 2. || p = 6.))
      v;
    Alcotest.(check bool) "some at base" true (Array.exists (fun p -> p = 2.) v)
  done

let test_instances_always_valid_property () =
  QCheck.Test.make ~name:"generated instances are well-formed" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 0 5))
    (fun (seed, which) ->
      let gens = Suite.all_flow ~n:30 ~m:3 in
      let gen = List.nth gens (which mod List.length gens) in
      let inst = Gen.instance gen ~seed in
      Instance.n inst = 30 && Instance.m inst = 3)
  |> QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick test_gen_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_gen_seed_changes;
    Alcotest.test_case "releases sorted and nonneg" `Quick test_releases_sorted_nonneg;
    Alcotest.test_case "batched arrivals" `Quick test_batched_arrivals;
    Alcotest.test_case "all at zero" `Quick test_all_at_zero;
    Alcotest.test_case "slot laxity alignment" `Quick test_slot_laxity_alignment;
    Alcotest.test_case "laxity deadlines" `Quick test_laxity_deadlines;
    Alcotest.test_case "weights positive" `Quick test_weights;
    Alcotest.test_case "shape identical" `Quick test_shape_identical;
    Alcotest.test_case "shape related" `Quick test_shape_related;
    Alcotest.test_case "shape unrelated spread" `Quick test_shape_unrelated_spread;
    Alcotest.test_case "shape restricted eligibility" `Quick test_shape_restricted_always_eligible;
    Alcotest.test_case "shape clustered" `Quick test_shape_clustered;
    test_instances_always_valid_property ();
  ]

let test_diurnal_arrivals () =
  let gen =
    Gen.make ~arrivals:(Gen.Diurnal { base_rate = 1.; amplitude = 0.8; period = 50. })
      ~n:200 ~m:1 ()
  in
  let inst = Gen.instance gen ~seed:4 in
  let jobs = Instance.jobs_by_release inst in
  Alcotest.(check int) "all generated" 200 (Array.length jobs);
  let prev = ref (-1.) in
  Array.iter
    (fun (j : Job.t) ->
      Alcotest.(check bool) "sorted" true (j.Job.release >= !prev);
      prev := j.Job.release)
    jobs;
  (* Mean rate over full periods should be near base_rate. *)
  let span = jobs.(199).Job.release in
  let rate = 200. /. span in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.2f near 1.0" rate)
    true
    (rate > 0.6 && rate < 1.6)

let test_diurnal_modulation () =
  (* Arrival density in peak half-periods should exceed trough ones. *)
  let gen =
    Gen.make ~arrivals:(Gen.Diurnal { base_rate = 1.; amplitude = 1.0; period = 100. })
      ~n:400 ~m:1 ()
  in
  let inst = Gen.instance gen ~seed:7 in
  let peak = ref 0 and trough = ref 0 in
  Array.iter
    (fun (j : Job.t) ->
      let phase = Float.rem j.Job.release 100. /. 100. in
      if phase < 0.5 then incr peak else incr trough)
    (Instance.jobs_by_release inst);
  Alcotest.(check bool)
    (Printf.sprintf "peak %d > trough %d" !peak !trough)
    true (!peak > !trough)

let suite =
  suite
  @ [
      Alcotest.test_case "diurnal arrivals" `Quick test_diurnal_arrivals;
      Alcotest.test_case "diurnal modulation" `Quick test_diurnal_modulation;
    ]

let test_swf_parse_example () =
  match Swf.parse ~m:2 Swf.example with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok inst ->
      (* Job 5 has runtime -1 and is skipped: 8 usable of 9. *)
      Alcotest.(check int) "usable jobs" 8 (Instance.n inst);
      Alcotest.(check int) "machines" 2 (Instance.m inst);
      let jobs = Instance.jobs_by_release inst in
      Alcotest.(check (float 0.)) "rebased to 0" 0. jobs.(0).Job.release;
      (* First job: runtime 120 x 4 procs / 2 machines = 240 base size. *)
      Alcotest.(check (float 1e-9)) "demand preserved" 240. (Job.size jobs.(0) 0)

let test_swf_max_jobs () =
  match Swf.parse ~max_jobs:3 Swf.example with
  | Ok inst -> Alcotest.(check int) "truncated" 3 (Instance.n inst)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_swf_malformed () =
  Alcotest.(check bool) "bad line rejected" true
    (match Swf.parse "1 zz 0 10 1" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "empty trace rejected" true
    (match Swf.parse "; only comments\n" with Error _ -> true | Ok _ -> false)

let test_swf_runs_end_to_end () =
  match Swf.parse ~m:2 Swf.example with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok inst ->
      let e = Option.get (Sched_experiments.Policy_registry.find ~eps:0.25 "flow-reject") in
      let s, live = e.Sched_experiments.Policy_registry.run inst in
      Test_util.assert_audit ~what:"flow-reject on the SWF example" e s live;
      Alcotest.(check bool) "positive flow" true ((Metrics.flow s).Metrics.total > 0.)

(* Saved-instance goldens: the MD5 of [Serialize.save_instance]'s file for
   every [Suite] family and for SWF imports under every shape, at seed 7
   (SWF: the example trace, shape draws from seed 5).  A seed names an
   instance, so the shapes' fills must make the same draws in the same
   order for as long as these digests stand.  m = 70 takes the
   restricted draws past machine 62; m = 3 reaches its forced-eligible
   redraw. *)
let saved_instance_goldens =
  [
    ("uniform", 40, 3, "378e584ec678654f9589d4560ed26c78");
    ("pareto-unrelated", 40, 3, "72e39bdc4004a9acbf5bad5860686092");
    ("bimodal-batched", 40, 3, "f08dd51e61702043832c714cae1a16d7");
    ("restricted", 40, 3, "def7b168f5b92d1caf75267c8b2104cb");
    ("related", 40, 3, "0023b9016e7bfefd7530fe3a8ad606bd");
    ("clustered", 40, 3, "cf2a8ae35c63494c11b3f0cd1c3ffe4e");
    ("diurnal", 40, 3, "ef267321251018c1bffcfba5dfec755d");
    ("weighted-energy", 40, 3, "9de49745fb2953408431f4e63e491e85");
    ("deadline-energy", 40, 3, "b7447798967da645abfdc596de020878");
    ("swf-identical", 40, 3, "7dd5d190374c133d7e94e3e7186d719d");
    ("swf-unrelated", 40, 3, "5cbaaf22b3c01581cc82ae39a24eef40");
    ("swf-restricted", 40, 3, "177321b88138d15a1d58c83b299eb0c9");
    ("swf-clustered", 40, 3, "2f3e4dde29f2ea5afc83fe91b825d0da");
    ("swf-related", 40, 3, "0d452b44030850d6e70ec91d333012d1");
    ("uniform", 60, 70, "b734c88213b49bce55ce7e60e7b6349b");
    ("pareto-unrelated", 60, 70, "c99f51fabc637cbc6ea48073f78b9930");
    ("bimodal-batched", 60, 70, "a716dfbd0eb2d57de16902b45eafb357");
    ("restricted", 60, 70, "a7035572e3a3aac5d943c448e813dd92");
    ("related", 60, 70, "5c0dc8a54ab1bb8da8ba5b0227d5b35e");
    ("clustered", 60, 70, "825e09d5edf3033ccaaa4e08f0d9880c");
    ("diurnal", 60, 70, "4bc9ec0d18cea8d619c3055034ac1440");
    ("weighted-energy", 60, 70, "f8e9391a5fb17210af2d97b60bd48962");
    ("deadline-energy", 60, 70, "d8d6170d3ff483da858d09b0da9b1bd2");
    ("swf-identical", 60, 70, "060b6618447ba67b1d0a7847abd65f0b");
    ("swf-unrelated", 60, 70, "78d7d8bed285a6c9bd865a0fc502afdd");
    ("swf-restricted", 60, 70, "cc2b6df24059640c4146021979f68e9c");
    ("swf-clustered", 60, 70, "2317ca984a15f18cb27e3ff9b3cda101");
    ("swf-related", 60, 70, "1fd11779e33384f40563d6f4ac0f30d5");
  ]

let saved_text inst =
  let path = Filename.temp_file "rejsched-instance" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_instance ~path inst;
      In_channel.with_open_bin path In_channel.input_all)

let test_saved_instances_pinned () =
  let generated (n, m) =
    [
      ("uniform", Suite.flow_uniform ~n ~m);
      ("pareto-unrelated", Suite.flow_pareto ~n ~m);
      ("bimodal-batched", Suite.flow_bimodal ~n ~m);
      ("restricted", Suite.flow_restricted ~n ~m);
      ("related", Suite.flow_related ~n ~m);
      ("clustered", Suite.flow_clustered ~n ~m);
      ("diurnal", Suite.flow_diurnal ~n ~m);
      ("weighted-energy", Suite.weighted_energy ~n ~m ~alpha:3.);
      ("deadline-energy", Suite.deadline_energy ~n ~m ~alpha:2.5);
    ]
    |> List.map (fun (name, g) -> ((name, n, m), Gen.instance g ~seed:7))
  in
  let imported (n, m) =
    [
      ("identical", Shape.identical);
      ("unrelated", Shape.unrelated ~spread:2.);
      ("restricted", Shape.restricted ~eligible_prob:0.3);
      ("clustered", Shape.clustered ~clusters:3 ~penalty:2.);
      ("related", Shape.related ~speeds:[| 1.; 1.5; 3. |]);
    ]
    |> List.map (fun (name, shape) ->
           match Swf.parse ~m ~shape ~rng:(Rng.create 5) Swf.example with
           | Ok inst -> (("swf-" ^ name, n, m), inst)
           | Error e -> Alcotest.failf "swf %s: %s" name e)
  in
  let cases = List.concat_map (fun nm -> generated nm @ imported nm) [ (40, 3); (60, 70) ] in
  Alcotest.(check int) "one golden per case" (List.length saved_instance_goldens) (List.length cases);
  List.iter2
    (fun (name, n, m, digest) ((name', n', m'), inst) ->
      Alcotest.(check (triple string int int)) "case order" (name, n, m) (name', n', m');
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d m=%d saved text" name n m)
        digest
        (Digest.to_hex (Digest.string (saved_text inst))))
    saved_instance_goldens cases

let suite =
  suite
  @ [
      Alcotest.test_case "swf parse example" `Quick test_swf_parse_example;
      Alcotest.test_case "swf max_jobs" `Quick test_swf_max_jobs;
      Alcotest.test_case "swf malformed" `Quick test_swf_malformed;
      Alcotest.test_case "swf end-to-end" `Quick test_swf_runs_end_to_end;
      Alcotest.test_case "saved instances match their digests" `Quick test_saved_instances_pinned;
    ]
