open Sched_model
module T = Sched_workload.Transform

let flow_of policy inst = Test_util.total_flow (Test_util.schedule_of policy inst)

(* Scaling by a power of two is exact in binary floating point, so every
   comparison in the simulator is preserved bit-for-bit; arbitrary factors
   can flip borderline event orderings (e.g. a completion vs. a same-instant
   arrival) and legitimately change rejection decisions. *)
let pow2 = QCheck.map (fun k -> 2. ** float_of_int (k - 2)) (QCheck.int_range 0 5)

let test_scale_time_metamorphic () =
  (* Time rescaling is an exact symmetry of the model, the driver and every
     scale-invariant policy: flows must scale by exactly c. *)
  QCheck.Test.make ~name:"flow(c * I) = c * flow(I) (time-rescaling symmetry)" ~count:25
    QCheck.(pair (int_bound 1000) pow2)
    (fun (seed, c) ->
      let gen = Sched_workload.Suite.flow_pareto ~n:50 ~m:2 in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let scaled = T.scale_time c inst in
      let base = flow_of Sched_baselines.Greedy_dispatch.spt inst in
      let after = flow_of Sched_baselines.Greedy_dispatch.spt scaled in
      Float.abs (after -. (c *. base)) <= 1e-6 *. Float.max 1. (c *. base))
  |> QCheck_alcotest.to_alcotest

let test_scale_time_metamorphic_thm1 () =
  (* The same symmetry must hold through both rejection rules. *)
  QCheck.Test.make ~name:"Theorem 1 flow scales exactly under time rescaling" ~count:25
    QCheck.(pair (int_bound 1000) pow2)
    (fun (seed, c) ->
      let gen = Sched_workload.Suite.flow_bimodal ~n:60 ~m:2 in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let run i =
        Test_util.schedule_of
          (Rejection.Flow_reject.policy (Rejection.Flow_reject.config ~eps:0.25 ()))
          i
      in
      let base = Test_util.total_flow (run inst) in
      let after = Test_util.total_flow (run (T.scale_time c inst)) in
      Float.abs (after -. (c *. base)) <= 1e-6 *. Float.max 1. (c *. base))
  |> QCheck_alcotest.to_alcotest

let test_shift_metamorphic () =
  (* Shifting all releases by delta leaves every flow unchanged.  Dyadic
     data and integer shifts keep every addition exact, so the invariance
     is bit-for-bit (arbitrary floats could flip borderline ties). *)
  QCheck.Test.make ~name:"flow invariant under release shifts" ~count:20
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, delta) ->
      let gen =
        Sched_workload.Gen.make
          ~arrivals:(Sched_workload.Gen.Batched { every = 4.; size = 3 })
          ~sizes:(Sched_stats.Dist.quantize ~grid:0.25 (Sched_stats.Dist.uniform ~lo:1. ~hi:8.))
          ~n:40 ~m:2 ()
      in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let base = flow_of Sched_baselines.Greedy_dispatch.fifo inst in
      let after =
        flow_of Sched_baselines.Greedy_dispatch.fifo
          (T.shift_releases (float_of_int delta) inst)
      in
      Float.abs (after -. base) <= 1e-6 *. Float.max 1. base)
  |> QCheck_alcotest.to_alcotest

let test_scale_sizes_increases_flow () =
  let gen = Sched_workload.Suite.flow_uniform ~n:40 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:3 in
  let base = flow_of Sched_baselines.Greedy_dispatch.spt inst in
  let doubled =
    Instance.create ~machines:inst.Instance.machines
      ~jobs:
        (List.map
           (fun (j : Job.t) -> Job.with_sizes j (Array.map (fun p -> 2. *. p) j.Job.sizes))
           (Array.to_list (Instance.jobs_by_release inst)))
      ()
  in
  let heavier = flow_of Sched_baselines.Greedy_dispatch.spt doubled in
  Alcotest.(check bool) "doubling sizes at fixed arrivals increases flow" true (heavier > base)

let test_energy_scaling_law () =
  (* Under time rescaling by c, YDS energy scales by c^(1-alpha) * ... :
     volumes scale by c, spans by c, so speeds are invariant and energy
     (speed^alpha * duration) scales by c. *)
  let jobs =
    [ { Sched_energy.Yds.release = 0.; deadline = 4.; volume = 2. };
      { Sched_energy.Yds.release = 1.; deadline = 3.; volume = 2. } ]
  in
  let scaled =
    List.map
      (fun (j : Sched_energy.Yds.job) ->
        { Sched_energy.Yds.release = 3. *. j.Sched_energy.Yds.release;
          deadline = 3. *. j.Sched_energy.Yds.deadline;
          volume = 3. *. j.Sched_energy.Yds.volume })
      jobs
  in
  Alcotest.(check (float 1e-9)) "yds scales linearly"
    (3. *. Sched_energy.Yds.optimal_energy ~alpha:3. jobs)
    (Sched_energy.Yds.optimal_energy ~alpha:3. scaled)

let test_subsample () =
  let gen = Sched_workload.Suite.flow_uniform ~n:100 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:1 in
  let rng = Sched_stats.Rng.create 9 in
  let sub = T.subsample rng ~keep:0.5 inst in
  Alcotest.(check bool) "fewer jobs" true (Instance.n sub < 100 && Instance.n sub > 0);
  (* Ids renumbered compactly. *)
  let jobs = Instance.jobs_by_release sub in
  let ids = Array.to_list (Array.map (fun (j : Job.t) -> j.Job.id) jobs) in
  Alcotest.(check (list int)) "compact ids"
    (List.init (Instance.n sub) Fun.id)
    (List.sort Int.compare ids)

let test_concat () =
  let a = Test_util.instance ~machines:2 [ (0., [| 2.; 2. |]) ] in
  let b = Test_util.instance ~machines:2 [ (0., [| 3.; 3. |]); (1., [| 1.; 1. |]) ] in
  let c = T.concat ~gap:5. a b in
  Alcotest.(check int) "job count" 3 (Instance.n c);
  let jobs = Instance.jobs_by_release c in
  Alcotest.(check bool) "b's jobs after a's horizon" true
    (jobs.(1).Job.release >= Instance.horizon a +. 5. -. 1e-9);
  Alcotest.(check bool) "fleet mismatch raises" true
    (try
       ignore (T.concat a (Test_util.instance [ (0., [| 1. |]) ]));
       false
     with Invalid_argument _ -> true)

let suite =
  [
    test_scale_time_metamorphic ();
    test_scale_time_metamorphic_thm1 ();
    test_shift_metamorphic ();
    Alcotest.test_case "scaling sizes increases flow" `Quick test_scale_sizes_increases_flow;
    Alcotest.test_case "yds energy scaling law" `Quick test_energy_scaling_law;
    Alcotest.test_case "subsample" `Quick test_subsample;
    Alcotest.test_case "concat" `Quick test_concat;
  ]
