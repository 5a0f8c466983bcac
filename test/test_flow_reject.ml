open Sched_model
open Sched_sim
module FR = Rejection.Flow_reject
module Rng = Sched_stats.Rng

let run ?(eps = 0.25) ?(rule1 = true) ?(rule2 = true) ?(dispatch = FR.Dual_lambda) inst =
  let cfg = FR.config ~eps ~rule1 ~rule2 ~dispatch () in
  let s, st, _ = Sched_sim.Driver.run (FR.policy cfg) inst in
  Schedule.assert_valid ~check_deadlines:false s;
  (s, st)

let test_spt_service_order () =
  (* All at time 0 on one machine; rules disabled to observe pure service
     order.  The first arrival grabs the idle machine, so test the order of
     the remaining two; use a long first job to keep them queued.  Here the
     first job IS the shortest, so the full SPT order is observable. *)
  let inst = Test_util.instance [ (0., [| 5. |]); (0., [| 1. |]); (0., [| 3. |]) ] in
  let s, _ = run ~rule1:false ~rule2:false inst in
  let finish id =
    match Schedule.outcome s id with
    | Outcome.Completed c -> c.Outcome.finish
    | Outcome.Rejected _ -> Float.nan
  in
  (* j0 (first arrival) grabs the machine: [0,5); then SPT serves j1 (1)
     before j2 (3). *)
  Alcotest.(check (float 1e-9)) "first arrival runs" 5. (finish 0);
  Alcotest.(check (float 1e-9)) "shortest queued next" 6. (finish 1);
  Alcotest.(check (float 1e-9)) "longest queued last" 9. (finish 2)

let test_rule1_threshold () =
  (* eps = 0.5 -> rule1 threshold 2: the running job is rejected at the
     second arrival during its execution.  Disable rule2 to isolate. *)
  let inst =
    Test_util.instance
      [ (0., [| 100. |]); (1., [| 1. |]); (2., [| 1. |]); (3., [| 1. |]) ]
  in
  let s, st = run ~eps:0.5 ~rule2:false inst in
  Alcotest.(check int) "one rule-1 rejection" 1 (FR.rule1_rejections st);
  (match Schedule.outcome s 0 with
  | Outcome.Rejected r ->
      Alcotest.(check (float 1e-9)) "rejected at second arrival" 2. r.Outcome.time;
      Alcotest.(check bool) "mid-run" true r.Outcome.was_running
  | Outcome.Completed _ -> Alcotest.fail "long job should be rejected by rule 1");
  (* The freed machine then serves the short jobs promptly. *)
  match Schedule.outcome s 1 with
  | Outcome.Completed c -> Alcotest.(check (float 1e-9)) "short job served" 3. c.Outcome.finish
  | Outcome.Rejected _ -> Alcotest.fail "short job should complete"

let test_rule1_counter_resets_per_execution () =
  (* With eps = 0.5 (threshold 2), one arrival during each of two separate
     executions must NOT trigger a rejection. *)
  let inst =
    Test_util.instance [ (0., [| 2. |]); (1., [| 2. |]); (3., [| 2. |]) ]
  in
  let s, st = run ~eps:0.5 ~rule2:false inst in
  Alcotest.(check int) "no rule-1 rejections" 0 (FR.rule1_rejections st);
  Array.iter
    (fun (j : Job.t) ->
      Alcotest.(check bool) (Printf.sprintf "job %d completed" j.Job.id) true
        (match Schedule.outcome s j.Job.id with Outcome.Completed _ -> true | Outcome.Rejected _ -> false))
    (Instance.jobs_by_release inst)

let test_rule2_rejects_largest () =
  (* eps = 0.5 -> rule2 threshold 3: at the third dispatch the largest
     pending job is rejected.  Disable rule1 to isolate.  Machine runs job
     0 (released first, very long so nothing completes meanwhile). *)
  let inst =
    Test_util.instance
      [ (0., [| 50. |]); (1., [| 9. |]); (2., [| 4. |]) ]
  in
  let s, st = run ~eps:0.5 ~rule1:false inst in
  Alcotest.(check int) "one rule-2 rejection" 1 (FR.rule2_rejections st);
  (* Pending at third dispatch: jobs 1 (9) and 2 (4); largest pending is 1.
     The running job 0 is exempt from rule 2. *)
  (match Schedule.outcome s 1 with
  | Outcome.Rejected r ->
      Alcotest.(check (float 1e-9)) "rejected at third arrival" 2. r.Outcome.time;
      Alcotest.(check bool) "not mid-run" false r.Outcome.was_running
  | Outcome.Completed _ -> Alcotest.fail "job 1 should be rejected by rule 2");
  Alcotest.(check bool) "running job survives rule 2" true
    (match Schedule.outcome s 0 with Outcome.Completed _ -> true | Outcome.Rejected _ -> false)

let test_rule2_can_reject_newcomer () =
  (* The just-arrived job is the largest pending: it must be the victim. *)
  let inst =
    Test_util.instance [ (0., [| 50. |]); (1., [| 2. |]); (2., [| 70. |]) ]
  in
  let s, st = run ~eps:0.5 ~rule1:false inst in
  Alcotest.(check int) "one rule-2 rejection" 1 (FR.rule2_rejections st);
  match Schedule.outcome s 2 with
  | Outcome.Rejected _ -> ()
  | Outcome.Completed _ -> Alcotest.fail "the newcomer (largest) should be rejected"

let test_dispatch_prefers_fast_machine () =
  (* Unrelated sizes: job prefers the machine where it is small. *)
  let inst = Test_util.instance ~machines:2 [ (0., [| 10.; 1. |]) ] in
  let s, _ = run inst in
  match Schedule.outcome s 0 with
  | Outcome.Completed c -> Alcotest.(check int) "machine 1" 1 c.Outcome.machine
  | Outcome.Rejected _ -> Alcotest.fail "should complete"

let test_dispatch_avoids_loaded_machine () =
  (* Machine 0 is buried under pending work; an equal-size job goes to 1. *)
  let inst =
    Test_util.instance ~machines:2
      [ (0., [| 5.; 1000. |]); (0., [| 5.; 1000. |]); (0., [| 5.; 1000. |]); (0.5, [| 6.; 6. |]) ]
  in
  let s, _ = run ~rule1:false ~rule2:false inst in
  match Schedule.outcome s 3 with
  | Outcome.Completed c -> Alcotest.(check int) "goes to idle machine" 1 c.Outcome.machine
  | Outcome.Rejected _ -> Alcotest.fail "should complete"

let test_lambda_values_positive () =
  let gen = Sched_workload.Suite.flow_uniform ~n:50 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:1 in
  let _, st = run inst in
  Array.iter
    (fun l -> Alcotest.(check bool) "lambda positive" true (l > 0.))
    (FR.lambdas st)

let test_lambda_formula_single_job () =
  (* First job on an empty machine: lambda_ij = p/eps + p, and
     lambda_j = eps/(1+eps) * that. *)
  let inst = Test_util.instance [ (0., [| 4. |]) ] in
  let eps = 0.25 in
  let _, st = run ~eps inst in
  let expected = eps /. (1. +. eps) *. ((4. /. eps) +. 4.) in
  Alcotest.(check (float 1e-9)) "lambda formula" expected (FR.lambdas st).(0)

let test_rejection_budget_property () =
  QCheck.Test.make ~name:"rejections <= 2 eps n (Theorem 1 budget)" ~count:40
    QCheck.(triple (int_bound 1000) (int_range 1 3) (float_range 0.15 0.9))
    (fun (seed, m, eps) ->
      let gen = Sched_workload.Suite.flow_pareto ~n:80 ~m in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s, _ = run ~eps inst in
      let r = Metrics.rejection s in
      float_of_int r.Metrics.count <= (2. *. eps *. 80.) +. 1e-9)
  |> QCheck_alcotest.to_alcotest

let test_schedules_valid_property () =
  QCheck.Test.make ~name:"flow-reject schedules always validate" ~count:40
    QCheck.(pair (int_bound 1000) (float_range 0.1 0.8))
    (fun (seed, eps) ->
      let gen = Sched_workload.Suite.flow_bimodal ~n:60 ~m:3 in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s, _ = run ~eps inst in
      Test_util.valid ~check_deadlines:false s)
  |> QCheck_alcotest.to_alcotest

let test_competitive_vs_opt_property () =
  QCheck.Test.make ~name:"ratio vs brute OPT within Theorem 1 bound" ~count:15
    QCheck.(pair (int_bound 1000) (int_range 1 2))
    (fun (seed, m) ->
      let eps = 0.25 in
      let inst = Sched_workload.Suite.tiny ~seed ~n:6 ~m in
      let s, _ = run ~eps inst in
      let opt = Option.get (Sched_baselines.Brute_force.optimal_flow inst) in
      Test_util.total_flow s <= (Rejection.Bounds.flow_competitive ~eps *. opt) +. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_no_rejection_variant () =
  let gen = Sched_workload.Suite.flow_uniform ~n:40 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:9 in
  let s, st = run ~rule1:false ~rule2:false inst in
  Alcotest.(check int) "no rejections" 0 (Metrics.rejection s).Metrics.count;
  Alcotest.(check int) "counters zero" 0 (FR.rule1_rejections st + FR.rule2_rejections st)

let test_greedy_dispatch_variant () =
  let gen = Sched_workload.Suite.flow_uniform ~n:40 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:10 in
  let s, _ = run ~dispatch:FR.Greedy_load inst in
  Alcotest.(check bool) "valid" true
    (Test_util.valid ~check_deadlines:false s)

let test_restricted_eligibility_respected () =
  let gen = Sched_workload.Suite.flow_restricted ~n:60 ~m:4 in
  let inst = Sched_workload.Gen.instance gen ~seed:3 in
  let s, _ = run inst in
  Array.iter
    (fun (j : Job.t) ->
      match Schedule.outcome s j.Job.id with
      | Outcome.Completed c ->
          Alcotest.(check bool) "eligible machine" true (Job.eligible j c.Outcome.machine)
      | Outcome.Rejected _ -> ())
    (Instance.jobs_by_release inst)

let test_config_validation () =
  Alcotest.(check bool) "eps 0 rejected" true
    (try
       ignore (FR.config ~eps:0. ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "eps 1 rejected" true
    (try
       ignore (FR.config ~eps:1. ());
       false
     with Invalid_argument _ -> true)

(* --- The pruned dispatch scan against the exhaustive one ------------------ *)

(* Theorem 1's dispatch rule the long way: lambda_ij from a pending split
   of every eligible machine, in the policy's formula and operation order,
   and the leftmost strict minimum. *)
let exhaustive_argmin eps view (j : Job.t) =
  let best = ref (-1) and best_c = ref 0. in
  for i = 0 to Array.length j.Job.sizes - 1 do
    if Job.eligible j i then begin
      let p = Job.size j i in
      let s = Driver.pending_split view i j in
      let c = (p /. eps) +. s.Driver.work_before +. p +. (s.Driver.count_after *. p) in
      if !best < 0 || not (!best_c <= c) then begin
        best := i;
        best_c := c
      end
    end
  done;
  (!best, !best_c)

(* Flow-reject with the exhaustive rule run beside its own at every
   arrival, on the view the policy decides from.  A Dual_lambda dispatch
   must pick the exhaustive machine; under either rule the dual variable
   the policy keeps must have the bits [eps/(1+eps)] times the exhaustive
   minimum gives, recorded in [expected] by job id. *)
let scan_probe cfg ~mismatches ~expected =
  let inner = FR.policy cfg in
  let on_arrival st view (j : Job.t) =
    let eps = FR.effective_eps st in
    let i, c = exhaustive_argmin eps view j in
    let d = inner.Driver.on_arrival st view j in
    (match cfg.FR.dispatch with
    | FR.Dual_lambda when d.Driver.dispatch_to <> i ->
        mismatches :=
          Printf.sprintf "job %d: machine %d, exhaustive scan %d" j.Job.id d.Driver.dispatch_to i
          :: !mismatches
    | FR.Dual_lambda | FR.Greedy_load -> ());
    expected.(j.Job.id) <- eps /. (1. +. eps) *. c;
    d
  in
  { inner with Driver.name = "flow-reject-scan-probe"; on_arrival }

(* Random instances for the probe: dyadic sizes on a small grid, so
   lambdas tie exactly; releases in bursts on a coarse grid, so queues
   grow deep; up to 130 machines, so fleets straddle the 62-bit mask;
   in one instance in four, sizes of 2^1015 whose p/eps overflows to
   infinity at eps = 0.001.  In one instance in four every job has one
   size on all machines, so every empty machine ties and only the
   index order breaks it; in the others about one machine in five is
   ineligible per job. *)
let scan_instance salt =
  let rng = Rng.create salt in
  let m = 1 + Rng.int rng 130 and n = 10 + Rng.int rng 150 in
  let huge = Rng.int rng 4 = 0 in
  let flat = Rng.int rng 4 = 0 in
  let size () =
    if huge && Rng.int rng 6 = 0 then 0x1p1015 else float_of_int (1 + Rng.int rng 8) /. 4.
  in
  let t = ref 0. in
  let jobs =
    List.init n (fun _ ->
        if Rng.int rng 4 = 0 then t := !t +. (float_of_int (Rng.int rng 4) /. 2.);
        let sizes =
          if flat then Array.make m (size ())
          else Array.init m (fun _ -> if Rng.int rng 5 = 0 then infinity else size ())
        in
        let k = Rng.int rng m in
        if not (Float.is_finite sizes.(k)) then sizes.(k) <- 1.;
        (!t, sizes))
  in
  (Test_util.instance ~machines:m jobs, huge)

let prop_pruned_scan_exact dispatch name =
  QCheck.Test.make ~name ~count:120
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let inst, huge = scan_instance salt in
      let eps = if huge then 0.001 else [| 0.1; 0.25; 0.3; 0.5 |].(salt mod 4) in
      let cfg = FR.config ~eps ~dispatch () in
      let mismatches = ref [] and expected = Array.make (Instance.n inst) Float.nan in
      let _, st, _ = Driver.run (scan_probe cfg ~mismatches ~expected) inst in
      let lambdas = FR.lambdas st in
      Array.iteri
        (fun id e ->
          if not (String.equal (Printf.sprintf "%h" e) (Printf.sprintf "%h" lambdas.(id))) then
            mismatches :=
              Printf.sprintf "job %d: lambda %h, exhaustive scan %h" id lambdas.(id) e
              :: !mismatches)
        expected;
      match !mismatches with
      | [] -> true
      | ms -> QCheck.Test.fail_reportf "%s" (String.concat "; " (List.rev ms)))
  |> QCheck_alcotest.to_alcotest

(* Every lambda infinite: the leftmost eligible machine wins, whether
   its pending set is empty or not, and every dual variable is
   infinite. *)
let test_infinite_lambda_leftmost () =
  let big = 0x1p1015 and inf = infinity in
  let inst =
    Test_util.instance ~machines:3
      [
        (0., [| inf; big; big |]);
        (0., [| inf; big; big |]);
        (0., [| big; big; big |]);
        (0., [| big; inf; inf |]);
        (0., [| big; big; big |]);
      ]
  in
  let s, st = run ~eps:0.001 ~rule1:false ~rule2:false inst in
  let machine id =
    match Schedule.outcome s id with
    | Outcome.Completed c -> c.Outcome.machine
    | Outcome.Rejected _ -> -1
  in
  (* Jobs 0 and 1 take machine 1 (job 1 queues there), job 2 takes the
     idle machine 0 and job 3 can only queue behind it; job 4 then finds
     machine 2 empty, but machine 0 ties it and lies further left. *)
  Alcotest.(check (list int)) "machines" [ 1; 1; 0; 0; 0 ] (List.map machine [ 0; 1; 2; 3; 4 ]);
  Array.iter
    (fun l -> Alcotest.(check bool) "infinite lambda" true (Float.equal l infinity))
    (FR.lambdas st)

let suite =
  [
    Alcotest.test_case "SPT service order" `Quick test_spt_service_order;
    Alcotest.test_case "rule 1 threshold" `Quick test_rule1_threshold;
    Alcotest.test_case "rule 1 resets per execution" `Quick test_rule1_counter_resets_per_execution;
    Alcotest.test_case "rule 2 rejects largest pending" `Quick test_rule2_rejects_largest;
    Alcotest.test_case "rule 2 can reject newcomer" `Quick test_rule2_can_reject_newcomer;
    Alcotest.test_case "dispatch prefers fast machine" `Quick test_dispatch_prefers_fast_machine;
    Alcotest.test_case "dispatch avoids loaded machine" `Quick test_dispatch_avoids_loaded_machine;
    Alcotest.test_case "lambdas positive" `Quick test_lambda_values_positive;
    Alcotest.test_case "lambda formula (single job)" `Quick test_lambda_formula_single_job;
    test_rejection_budget_property ();
    test_schedules_valid_property ();
    test_competitive_vs_opt_property ();
    Alcotest.test_case "no-rejection variant" `Quick test_no_rejection_variant;
    Alcotest.test_case "greedy dispatch variant" `Quick test_greedy_dispatch_variant;
    Alcotest.test_case "restricted eligibility respected" `Quick test_restricted_eligibility_respected;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    prop_pruned_scan_exact FR.Dual_lambda "pruned scan = exhaustive scan (dispatch, lambda bits)";
    prop_pruned_scan_exact FR.Greedy_load "greedy dispatch keeps the exhaustive lambda bits";
    Alcotest.test_case "infinite lambdas: leftmost eligible" `Quick test_infinite_lambda_leftmost;
  ]
