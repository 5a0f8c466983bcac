open Sched_model
module EG = Rejection.Energy_config_greedy

let test_single_job_spreads () =
  (* alpha > 1: running slower is cheaper, so a lone job uses its whole
     window: duration = span, speed = p / span. *)
  let inst = Test_util.deadline_instance ~alpha:3. [ (0., 4., [| 2. |]) ] in
  let r = EG.run inst in
  (match r.EG.assignments with
  | [ a ] ->
      Alcotest.(check int) "duration = span" 4 a.EG.duration;
      Alcotest.(check (float 1e-9)) "speed p/span" 0.5 a.EG.speed;
      Alcotest.(check (float 1e-9)) "marginal = energy" r.EG.energy a.EG.marginal
  | _ -> Alcotest.fail "one assignment");
  Alcotest.(check (float 1e-9)) "energy = (p/span)^a * span" (0.5 ** 3. *. 4.) r.EG.energy

let test_energy_matches_metrics () =
  let gen = Sched_workload.Suite.deadline_energy ~n:25 ~m:2 ~alpha:3. in
  let inst = Sched_workload.Gen.instance gen ~seed:8 in
  let r = EG.run inst in
  Alcotest.(check (float 1e-6)) "slot energy equals segment-sweep energy" r.EG.energy
    (Metrics.energy r.EG.schedule)

let test_marginals_telescope () =
  let gen = Sched_workload.Suite.deadline_energy ~n:20 ~m:2 ~alpha:2. in
  let inst = Sched_workload.Gen.instance gen ~seed:4 in
  let r = EG.run inst in
  let sum = List.fold_left (fun acc a -> acc +. a.EG.marginal) 0. r.EG.assignments in
  Alcotest.(check (float 1e-6)) "sum of marginals = final energy" r.EG.energy sum

let test_deadlines_respected () =
  let gen = Sched_workload.Suite.deadline_energy ~n:30 ~m:2 ~alpha:3. in
  let inst = Sched_workload.Gen.instance gen ~seed:13 in
  let r = EG.run inst in
  match Schedule.validate ~allow_parallel:true ~check_deadlines:true r.EG.schedule with
  | Ok () -> ()
  | Error es -> Alcotest.failf "violations: %s" (String.concat "; " es)

let test_greedy_avoids_contention () =
  (* Two identical jobs with disjoint feasible halves of a window would
     overlap if placed greedily at full span; the greedy must prefer the
     cheaper non-overlapping placement when it is cheaper.  With alpha = 2
     and span 4, overlapping at speed 0.5 costs (1)^2*... we simply check
     the greedy never does worse than fully-overlapped full-span
     placement. *)
  let inst =
    Test_util.deadline_instance ~alpha:2. [ (0., 4., [| 2. |]); (0., 4., [| 2. |]) ]
  in
  let r = EG.run inst in
  let overlapped = 2. *. (0.5 ** 2.) *. 4. *. 2. in
  (* = energy if both sat on top of each other ((0.5+0.5)^2*4 = 4) vs
     separate halves: 2 * (1^2 * 2) = 4... compute the actual bound: *)
  ignore overlapped;
  Alcotest.(check bool) "energy <= 4" true (r.EG.energy <= 4. +. 1e-9)

let test_respects_release_slots () =
  let inst = Test_util.deadline_instance ~alpha:3. [ (2., 6., [| 2. |]) ] in
  let r = EG.run inst in
  match r.EG.assignments with
  | [ a ] -> Alcotest.(check bool) "starts at/after release" true (a.EG.start_slot >= 2)
  | _ -> Alcotest.fail "one assignment"

let test_requires_deadlines () =
  let inst = Test_util.instance [ (0., [| 1. |]) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (EG.run inst);
       false
     with Invalid_argument _ -> true)

let test_within_alpha_alpha_of_yds () =
  QCheck.Test.make ~name:"greedy within alpha^alpha of YDS (m=1)" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 2 3))
    (fun (seed, ai) ->
      let alpha = float_of_int ai in
      let gen = Sched_workload.Suite.deadline_energy ~n:20 ~m:1 ~alpha in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let r = EG.run inst in
      let yds = Sched_energy.Yds.optimal_energy ~alpha (Sched_energy.Yds.of_instance inst ~machine:0) in
      r.EG.energy <= (Rejection.Bounds.energy_competitive ~alpha *. yds) +. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_continuous_single_job () =
  let st = EG.continuous ~alpha:3. () in
  let start, speed = EG.continuous_place st ~release:0. ~deadline:9. ~volume:3. in
  (* Lone job: cheapest is the whole window at speed volume/span. *)
  Alcotest.(check (float 1e-9)) "start 0" 0. start;
  Alcotest.(check (float 1e-6)) "min speed" (3. /. 9.) speed

let test_continuous_feasibility () =
  let st = EG.continuous ~alpha:3. ~grid:16 () in
  for k = 0 to 10 do
    let release = float_of_int k and deadline = float_of_int k +. 2. in
    let start, speed = EG.continuous_place st ~release ~deadline ~volume:1. in
    let finish = start +. (1. /. speed) in
    Alcotest.(check bool) "within window" true
      (start >= release -. 1e-9 && finish <= deadline +. 1e-9)
  done

let suite =
  [
    Alcotest.test_case "single job spreads over window" `Quick test_single_job_spreads;
    Alcotest.test_case "energy matches Metrics.energy" `Quick test_energy_matches_metrics;
    Alcotest.test_case "marginals telescope" `Quick test_marginals_telescope;
    Alcotest.test_case "deadlines respected" `Quick test_deadlines_respected;
    Alcotest.test_case "greedy avoids contention" `Quick test_greedy_avoids_contention;
    Alcotest.test_case "release slots respected" `Quick test_respects_release_slots;
    Alcotest.test_case "requires deadlines" `Quick test_requires_deadlines;
    test_within_alpha_alpha_of_yds ();
    Alcotest.test_case "continuous: lone job" `Quick test_continuous_single_job;
    Alcotest.test_case "continuous: feasibility" `Quick test_continuous_feasibility;
  ]

let test_custom_powers_nonconvex () =
  (* A step power function (non-convex at jumps): Theorem 3's greedy must
     still run, telescope its marginals, and prefer staying under a step
     threshold when that is free. *)
  let inst = Test_util.deadline_instance ~alpha:3. [ (0., 4., [| 2. |]); (0., 4., [| 2. |]) ] in
  let step = Sched_energy.Power.piecewise [ (1., 1.); (2., 10.) ] in
  let r = EG.run ~powers:[| step |] inst in
  Schedule.assert_valid ~allow_parallel:true r.EG.schedule;
  let telescoped = List.fold_left (fun acc a -> acc +. a.EG.marginal) 0. r.EG.assignments in
  Alcotest.(check (float 1e-9)) "marginals telescope under step power" r.EG.energy telescoped;
  (* Both jobs fit at total speed <= 1 (e.g. each over its own half), so
     the greedy should avoid the 10x step: energy <= 4 * P(1) = 4. *)
  Alcotest.(check bool)
    (Printf.sprintf "avoids the step (energy %.2f)" r.EG.energy)
    true (r.EG.energy <= 4. +. 1e-9)

let test_custom_powers_static () =
  (* Static power penalizes being on at all: a lone job should run fast
     and short rather than slow and long once static power dominates. *)
  let inst = Test_util.deadline_instance ~alpha:2. [ (0., 8., [| 2. |]) ] in
  let static = Sched_energy.Power.affine_polynomial ~alpha:2. ~static:10. in
  let r = EG.run ~powers:[| static |] inst in
  match r.EG.assignments with
  | [ a ] ->
      (* Energy for duration d: d * ((2/d)^2 + 10); minimized at d = ...
         (4/d + 10 d)' = -4/d^2 + 10 = 0 -> d = 0.63: integer optimum 1. *)
      Alcotest.(check int) "short and fast under static power" 1 a.EG.duration
  | _ -> Alcotest.fail "one assignment"

let test_edf_cross_checks_yds () =
  QCheck.Test.make ~name:"EDF min speed = YDS peak speed; feasibility flips there" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 6) (triple (float_range 0. 8.) (float_range 0.5 4.) (float_range 0.5 4.)))
    (fun raw ->
      let jobs =
        List.map
          (fun (r, span, v) -> { Sched_energy.Yds.release = r; deadline = r +. span; volume = v })
          raw
      in
      let smin = Sched_energy.Edf.min_speed jobs in
      let peak = Sched_energy.Edf.yds_peak_speed ~alpha:3. jobs in
      Float.abs (smin -. peak) <= 1e-6 *. Float.max 1. smin
      && Sched_energy.Edf.feasible ~speed:(smin *. 1.001) jobs
      && ((not (Sched_energy.Edf.feasible ~speed:(smin *. 0.9) jobs)) || smin = 0.))
  |> QCheck_alcotest.to_alcotest

let test_edf_simple () =
  let jobs =
    [ { Sched_energy.Yds.release = 0.; deadline = 2.; volume = 2. };
      { Sched_energy.Yds.release = 0.; deadline = 4.; volume = 2. } ]
  in
  Alcotest.(check (float 1e-9)) "min speed" 1. (Sched_energy.Edf.min_speed jobs);
  Alcotest.(check bool) "feasible at 1" true (Sched_energy.Edf.feasible ~speed:1. jobs);
  Alcotest.(check bool) "infeasible at 0.9" false (Sched_energy.Edf.feasible ~speed:0.9 jobs)

let suite =
  suite
  @ [
      Alcotest.test_case "custom powers: non-convex step" `Quick test_custom_powers_nonconvex;
      Alcotest.test_case "custom powers: static" `Quick test_custom_powers_static;
      test_edf_cross_checks_yds ();
      Alcotest.test_case "edf simple" `Quick test_edf_simple;
    ]
