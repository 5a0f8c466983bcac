open Sched_model

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* --- Job --- *)

let test_job_create () =
  let j = Job.create ~id:0 ~release:1. ~weight:2. ~sizes:[| 3.; 5. |] () in
  Alcotest.(check (float 0.)) "size 0" 3. (Job.size j 0);
  Alcotest.(check (float 0.)) "size 1" 5. (Job.size j 1);
  Alcotest.(check (float 0.)) "min size" 3. (Job.min_size j);
  Alcotest.(check int) "best machine" 0 j.Job.best_machine;
  Alcotest.(check bool) "eligible" true (Job.eligible j 1)

let test_job_restricted () =
  let j = Job.create ~id:0 ~release:0. ~sizes:[| Float.infinity; 4. |] () in
  Alcotest.(check bool) "machine 0 ineligible" false (Job.eligible j 0);
  Alcotest.(check int) "best machine" 1 j.Job.best_machine;
  Alcotest.(check (float 0.)) "min size" 4. (Job.min_size j)

let test_job_validation () =
  Alcotest.(check bool) "negative release" true
    (raises_invalid (fun () -> Job.create ~id:0 ~release:(-1.) ~sizes:[| 1. |] ()));
  Alcotest.(check bool) "infinite release" true
    (raises_invalid (fun () -> Job.create ~id:0 ~release:Float.infinity ~sizes:[| 1. |] ()));
  Alcotest.(check bool) "zero size" true
    (raises_invalid (fun () -> Job.create ~id:0 ~release:0. ~sizes:[| 0. |] ()));
  Alcotest.(check bool) "all infinite" true
    (raises_invalid (fun () -> Job.create ~id:0 ~release:0. ~sizes:[| Float.infinity |] ()));
  Alcotest.(check bool) "empty sizes" true
    (raises_invalid (fun () -> Job.create ~id:0 ~release:0. ~sizes:[||] ()));
  Alcotest.(check bool) "bad weight" true
    (raises_invalid (fun () -> Job.create ~id:0 ~release:0. ~weight:0. ~sizes:[| 1. |] ()));
  Alcotest.(check bool) "deadline before release" true
    (raises_invalid (fun () -> Job.create ~id:0 ~release:5. ~deadline:5. ~sizes:[| 1. |] ()))

(* 511 distinct valid sizes, for a bad or infinite 512th: [create]'s
   fast pass fails only at the last element. *)
let valid_511 = Array.init 511 (fun k -> float_of_int (1 + (k * 37 mod 101)) /. 8.)

(* Every non-positive or NaN size is refused with the one message,
   wherever it sits in the vector and whatever else the vector holds: a
   bad size next to infinite ones is a bad size, not a vector with no
   eligible machine. *)
let test_job_bad_size_message () =
  let expected = Invalid_argument "Job.create: sizes must be positive" in
  List.iter
    (fun (name, bad) ->
      List.iter
        (fun (where, sizes) ->
          Alcotest.check_raises (Printf.sprintf "%s at %s" name where) expected (fun () ->
              ignore (Job.create ~id:0 ~release:0. ~sizes ())))
        [
          ("first", [| bad; 1.; 2.; 3.; 4. |]);
          ("middle", [| 1.; 2.; bad; 3.; 4. |]);
          ("last", [| 1.; 2.; 3.; 4.; bad |]);
          ("the only size", [| bad |]);
          ("among infinities", [| Float.infinity; bad; Float.infinity |]);
          ("after infinities", [| Float.infinity; Float.infinity; bad |]);
          ("the end of 512", Array.append valid_511 [| bad |]);
        ])
    [ ("NaN", Float.nan); ("-0.", -0.); ("0.", 0.); ("-1.", -1.); ("-inf", Float.neg_infinity) ]

let test_job_order () =
  let a = Job.create ~id:0 ~release:1. ~sizes:[| 1. |] () in
  let b = Job.create ~id:1 ~release:1. ~sizes:[| 1. |] () in
  let c = Job.create ~id:2 ~release:0.5 ~sizes:[| 1. |] () in
  Alcotest.(check bool) "release order" true (Job.compare_by_release c a < 0);
  Alcotest.(check bool) "tie by id" true (Job.compare_by_release a b < 0)

(* --- Machine --- *)

let test_machine () =
  let m = Machine.create ~id:3 ~speed:2. ~alpha:2.5 () in
  Alcotest.(check int) "id" 3 m.Machine.id;
  Alcotest.(check (float 0.)) "speed" 2. m.Machine.speed;
  let m' = Machine.with_speed m 4. in
  Alcotest.(check (float 0.)) "with_speed" 4. m'.Machine.speed;
  Alcotest.(check (float 0.)) "alpha kept" 2.5 m'.Machine.alpha;
  Alcotest.(check bool) "bad speed" true (raises_invalid (fun () -> Machine.create ~id:0 ~speed:0. ()));
  Alcotest.(check bool) "bad alpha" true (raises_invalid (fun () -> Machine.create ~id:0 ~alpha:0.5 ()));
  let fleet = Machine.fleet 4 in
  Alcotest.(check int) "fleet size" 4 (Array.length fleet);
  Array.iteri (fun i (mc : Machine.t) -> Alcotest.(check int) "fleet ids" i mc.Machine.id) fleet

(* --- Instance --- *)

let test_instance_basics () =
  let inst =
    Test_util.instance ~machines:2 [ (0., [| 2.; 3. |]); (1., [| 4.; 1. |]); (0.5, [| 5.; 5. |]) ]
  in
  Alcotest.(check int) "n" 3 (Instance.n inst);
  Alcotest.(check int) "m" 2 (Instance.m inst);
  Alcotest.(check (float 1e-12)) "total weight" 3. (Instance.total_weight inst);
  Alcotest.(check (float 1e-12)) "min volume" (2. +. 1. +. 5.) (Instance.total_min_volume inst);
  Alcotest.(check bool) "delta" true
    (Test_util.contains (Format.asprintf "%a" Instance.pp_stats inst) "delta=5 ");
  Alcotest.(check bool) "no deadlines" false (Instance.has_deadlines inst);
  (* Jobs sorted by release. *)
  let jobs = Instance.jobs_by_release inst in
  Alcotest.(check (list int)) "release order" [ 0; 2; 1 ]
    (Array.to_list (Array.map (fun (j : Job.t) -> j.Job.id) jobs));
  (* Lookup by id works even when order differs. *)
  Alcotest.(check (float 0.)) "job lookup" 4. (Job.size (Instance.job inst 1) 0)

let test_instance_validation () =
  Alcotest.(check bool) "size vector mismatch" true
    (raises_invalid (fun () ->
         Instance.create ~machines:(Machine.fleet 2)
           ~jobs:[ Job.create ~id:0 ~release:0. ~sizes:[| 1. |] () ]
           ()));
  Alcotest.(check bool) "duplicate ids" true
    (raises_invalid (fun () ->
         Instance.create ~machines:(Machine.fleet 1)
           ~jobs:
             [
               Job.create ~id:0 ~release:0. ~sizes:[| 1. |] ();
               Job.create ~id:0 ~release:1. ~sizes:[| 1. |] ();
             ]
           ()));
  Alcotest.(check bool) "gap in ids" true
    (raises_invalid (fun () ->
         Instance.create ~machines:(Machine.fleet 1)
           ~jobs:[ Job.create ~id:1 ~release:0. ~sizes:[| 1. |] () ]
           ()));
  Alcotest.(check bool) "no machines" true
    (raises_invalid (fun () -> Instance.create ~machines:[||] ~jobs:[] ()))

let test_instance_horizon () =
  let inst = Test_util.instance [ (10., [| 2. |]); (0., [| 3. |]) ] in
  Alcotest.(check bool) "horizon covers everything" true (Instance.horizon inst >= 15.)

(* Jobs with the ids [0..n-1] handed out in a random order, random
   releases (ties included) and random sizes: some forbidden, some
   non-dyadic, spanning several orders of magnitude. *)
let random_jobs rng ~n ~m =
  let ids = Array.init n Fun.id in
  Test_util.shuffle rng ids;
  Array.to_list
    (Array.map
       (fun id ->
         let sizes =
           Array.init m (fun _ ->
               if Sched_stats.Rng.int rng 4 = 0 then Float.infinity
               else Sched_stats.Rng.float_range rng 1e-3 1e3)
         in
         sizes.(Sched_stats.Rng.int rng m) <- Sched_stats.Rng.float_range rng 0.1 10.;
         Job.create ~id ~release:(float_of_int (Sched_stats.Rng.int rng 20)) ~sizes ())
       ids)

let prop_instance_job_by_id =
  QCheck.Test.make ~name:"Instance.job finds every id under random id permutations" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sched_stats.Rng.create seed in
      let n = 1 + Sched_stats.Rng.int rng 60 and m = 1 + Sched_stats.Rng.int rng 4 in
      let jobs = random_jobs rng ~n ~m in
      let inst = Instance.create ~machines:(Machine.fleet m) ~jobs () in
      List.for_all (fun (j : Job.t) -> Instance.job inst j.Job.id == j) jobs
      && raises_invalid (fun () -> Instance.job inst n)
      && raises_invalid (fun () -> Instance.job inst (-1)))
  |> QCheck_alcotest.to_alcotest

(* The [Float.min] definitions the plain [<] scans replaced.  Sizes are
   positive and never NaN and speeds positive and finite, so the two must
   agree bit for bit. *)
let float_min_size (j : Job.t) = Array.fold_left Float.min Float.infinity j.Job.sizes

let float_min_volume inst =
  let total = ref 0. in
  Array.iter
    (fun (j : Job.t) ->
      let mn = ref Float.infinity in
      for i = 0 to Instance.m inst - 1 do
        if Job.eligible j i then begin
          let speed = (Instance.machine inst i).Machine.speed in
          mn := Float.min !mn (Job.size j i /. speed)
        end
      done;
      total := !total +. !mn)
    (Instance.jobs_by_release inst);
  !total

let float_total_min_volume inst =
  Array.fold_left (fun acc j -> acc +. float_min_size j) 0. (Instance.jobs_by_release inst)

let prop_folds_match_float_min =
  QCheck.Test.make ~name:"min-size and volume scans equal their Float.min folds bit for bit"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sched_stats.Rng.create seed in
      let n = 1 + Sched_stats.Rng.int rng 40 and m = 1 + Sched_stats.Rng.int rng 9 in
      let machines =
        Array.init m (fun id ->
            Machine.create ~id ~speed:(Sched_stats.Rng.float_range rng 0.05 20.) ())
      in
      let inst = Instance.create ~machines ~jobs:(random_jobs rng ~n ~m) () in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      Array.for_all
        (fun j -> same (Job.min_size j) (float_min_size j))
        (Instance.jobs_by_release inst)
      && same (Instance.total_min_volume inst) (float_total_min_volume inst)
      && same
           (Sched_baselines.Lower_bounds.volume inst).Sched_baselines.Lower_bounds.value
           (float_min_volume inst))
  |> QCheck_alcotest.to_alcotest

(* [Job.create]'s cached summaries against a fresh scan of the same
   vector: the [Float.min] fold for the minimum (compared bit for bit)
   and the first machine holding it, and the count and mask of finite
   entries, bit [k] for machine [k] up to 61 and bit 62 for every
   machine beyond.  The widths straddle the saturation point and reach
   run-cluster's 512; in half the cases every entry is finite, which
   takes [create]'s fast pass, and in the others infinite entries come
   at a random rate per case.  Half the cases draw from three sizes so
   the minimum ties, and [with_sizes] must re-summarize.  The caller's
   array is overwritten after [create], which must not reach the job's
   copy. *)
let fresh_summary sizes =
  let count = ref 0 and mask = ref 0 in
  Array.iteri
    (fun k p ->
      if Float.is_finite p then begin
        incr count;
        mask := !mask lor (1 lsl min k 62)
      end)
    sizes;
  let mn = Array.fold_left Float.min Float.infinity sizes in
  let rec first k = if Float.equal sizes.(k) mn then k else first (k + 1) in
  (mn, first 0, !count, !mask)

let prop_job_summaries_match_scan =
  QCheck.Test.make ~name:"Job.create's cached min size, eligible count and mask equal a fresh scan"
    ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_bound 5) bool)
    (fun (seed, which, all_finite) ->
      let m = [| 1; 61; 62; 63; 130; 512 |].(which) in
      let rng = Sched_stats.Rng.create seed in
      let p_inf = if all_finite then 0. else Sched_stats.Rng.float rng in
      let ties = Sched_stats.Rng.int rng 2 = 0 in
      let draw () =
        let v =
          Array.init m (fun _ ->
              if Sched_stats.Rng.float rng < p_inf then Float.infinity
              else if ties then float_of_int (1 + Sched_stats.Rng.int rng 3)
              else Sched_stats.Rng.float_range rng 1e-3 1e3)
        in
        if not (Array.exists Float.is_finite v) then
          v.(Sched_stats.Rng.int rng m) <- Sched_stats.Rng.float_range rng 0.1 10.;
        v
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let agrees (j : Job.t) expected =
        let mn, best, count, mask = fresh_summary expected in
        same (Job.min_size j) mn && j.Job.best_machine = best
        && j.Job.eligible_count = count && j.Job.eligible_mask = mask
        && Array.for_all2 same j.Job.sizes expected
      in
      let input = draw () in
      let expected = Array.copy input in
      let j = Job.create ~id:0 ~release:0. ~sizes:input () in
      Array.fill input 0 m 7.;
      let resized = draw () in
      agrees j expected && agrees (Job.with_sizes j resized) resized)
  |> QCheck_alcotest.to_alcotest

(* [create]'s fast pass stops at the first infinite size and the full
   summary resumes there from the prefix's count, mask and minimum.  The
   prefix lengths straddle the mask's saturation point (bit 62) and reach
   511 of 512, where only the last size fails the fast pass; the rest of
   the vector is all infinite, so a resumed mask that claimed bit 62 too
   early would show. *)
let test_job_finite_prefix_then_infinite () =
  List.iter
    (fun k ->
      List.iter
        (fun m ->
          let sizes =
            Array.init m (fun i -> if i < k then valid_511.(i) else Float.infinity)
          in
          let j = Job.create ~id:0 ~release:0. ~sizes () in
          let mn, best, count, mask = fresh_summary sizes in
          let what = Printf.sprintf "%d finite of %d: " k m in
          Alcotest.(check int64) (what ^ "min size bits") (Int64.bits_of_float mn)
            (Int64.bits_of_float (Job.min_size j));
          Alcotest.(check int) (what ^ "best machine") best j.Job.best_machine;
          Alcotest.(check int) (what ^ "eligible count") count j.Job.eligible_count;
          Alcotest.(check int) (what ^ "eligible mask") mask j.Job.eligible_mask)
        [ k + 1; 512 ])
    [ 1; 2; 61; 62; 63; 64; 130; 511 ]

(* On a fleet of one speed [volume] sums the cached minima divided by the
   speed instead of scanning; rounding is monotone, so it must equal the
   scan's [Float.min] fold bit for bit, at speed 1 and at any other. *)
let prop_volume_equal_speeds =
  QCheck.Test.make ~name:"volume's one-speed sum equals the per-machine scan bit for bit"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sched_stats.Rng.create seed in
      let n = 1 + Sched_stats.Rng.int rng 40 and m = 1 + Sched_stats.Rng.int rng 9 in
      let speed =
        if Sched_stats.Rng.int rng 3 = 0 then 1. else Sched_stats.Rng.float_range rng 0.05 20.
      in
      let inst =
        Instance.create ~machines:(Machine.fleet ~speed m) ~jobs:(random_jobs rng ~n ~m) ()
      in
      Int64.equal
        (Int64.bits_of_float
           (Sched_baselines.Lower_bounds.volume inst).Sched_baselines.Lower_bounds.value)
        (Int64.bits_of_float (float_min_volume inst)))
  |> QCheck_alcotest.to_alcotest

(* --- Time --- *)

let test_time () =
  Alcotest.(check bool) "equal with tolerance" true (Time.equal 1. (1. +. 1e-12));
  Alcotest.(check bool) "lt strict" true (Time.lt 1. 1.1);
  Alcotest.(check bool) "lt not for close" false (Time.lt 1. (1. +. 1e-12));
  Alcotest.(check bool) "nonneg tolerance" true (Time.nonneg (-1e-12));
  Alcotest.(check bool) "nonneg strict" false (Time.nonneg (-1.))

(* --- Outcome --- *)

let test_outcome () =
  let j = Job.create ~id:0 ~release:2. ~sizes:[| 3. |] () in
  let completed = Outcome.Completed { machine = 0; start = 2.; speed = 1.; finish = 5. } in
  let rejected = Outcome.Rejected { time = 4.; assigned_to = Some 0; was_running = true } in
  Alcotest.(check (float 0.)) "flow completed" 3. (Outcome.flow_time j completed);
  Alcotest.(check (float 0.)) "flow rejected" 2. (Outcome.flow_time j rejected);
  Alcotest.(check (float 0.)) "end time" 4. (Outcome.end_time rejected)

let suite =
  [
    Alcotest.test_case "job create" `Quick test_job_create;
    Alcotest.test_case "job restricted" `Quick test_job_restricted;
    Alcotest.test_case "job validation" `Quick test_job_validation;
    Alcotest.test_case "job bad size: one message at any index" `Quick test_job_bad_size_message;
    Alcotest.test_case "job order" `Quick test_job_order;
    Alcotest.test_case "machine" `Quick test_machine;
    Alcotest.test_case "instance basics" `Quick test_instance_basics;
    Alcotest.test_case "instance validation" `Quick test_instance_validation;
    Alcotest.test_case "instance horizon" `Quick test_instance_horizon;
    prop_instance_job_by_id;
    prop_folds_match_float_min;
    prop_job_summaries_match_scan;
    Alcotest.test_case "job create: finite prefix, infinite rest" `Quick
      test_job_finite_prefix_then_infinite;
    prop_volume_equal_speeds;
    Alcotest.test_case "time comparisons" `Quick test_time;
    Alcotest.test_case "outcome" `Quick test_outcome;
  ]
