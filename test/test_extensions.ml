(* Tests for the extension modules: machine augmentation, discrete speed
   grids, the Gantt renderer, serialization and the Theorem 2 dual
   certificate. *)

open Sched_model
module MA = Sched_baselines.Machine_augmented
module EG = Rejection.Energy_config_greedy

(* --- machine augmentation --- *)

let test_augment_structure () =
  let inst = Test_util.instance ~machines:2 [ (0., [| 2.; 3. |]); (1., [| 4.; 5. |]) ] in
  let aug = MA.augment ~factor:3 inst in
  Alcotest.(check int) "machines tripled" 6 (Instance.m aug);
  Alcotest.(check int) "jobs unchanged" 2 (Instance.n aug);
  let j = Instance.job aug 0 in
  Alcotest.(check (float 0.)) "sizes tiled (copy 1)" 2. (Job.size j 2);
  Alcotest.(check (float 0.)) "sizes tiled (copy 2)" 3. (Job.size j 5)

let test_augment_helps () =
  (* A batch of equal jobs on one machine: with 4 copies they run in
     parallel and total flow drops. *)
  let gen = Sched_workload.Suite.flow_uniform ~n:60 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:5 in
  let base =
    Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst
  in
  let aug = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt (MA.augment ~factor:4 inst) in
  Alcotest.(check bool) "augmentation reduces flow" true
    (Test_util.total_flow aug <= Test_util.total_flow base +. 1e-9)

let test_augment_factor_one_identity () =
  let gen = Sched_workload.Suite.flow_uniform ~n:40 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:6 in
  let base = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst in
  let one = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt (MA.augment ~factor:1 inst) in
  Alcotest.(check (float 1e-9)) "factor 1 is identity" (Test_util.total_flow base)
    (Test_util.total_flow one)

(* --- discrete speed grid for Theorem 3 --- *)

let test_grid_feasible_and_bounded () =
  (* A restricted strategy set can occasionally *help* a greedy (it is not
     optimal), so the honest properties are: the grid run stays feasible
     and within alpha^alpha of the YDS lower bound. *)
  QCheck.Test.make ~name:"speed-grid greedy feasible and within alpha^alpha of YDS" ~count:15
    QCheck.(int_bound 1000)
    (fun seed ->
      let alpha = 3. in
      let gen = Sched_workload.Suite.deadline_energy ~n:15 ~m:1 ~alpha in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let speeds = [| 0.25; 0.5; 1.; 2.; 4. |] in
      let r = EG.run ~speeds inst in
      let yds =
        Sched_energy.Yds.optimal_energy ~alpha (Sched_energy.Yds.of_instance inst ~machine:0)
      in
      (Test_util.valid ~allow_parallel:true ~check_deadlines:true r.EG.schedule)
      && r.EG.energy >= yds -. 1e-9
      && r.EG.energy <= ((alpha ** alpha) *. yds) +. 1e-6)
  |> QCheck_alcotest.to_alcotest

let test_rich_grid_converges () =
  let gen = Sched_workload.Suite.deadline_energy ~n:15 ~m:1 ~alpha:3. in
  let inst = Sched_workload.Gen.instance gen ~seed:3 in
  let free = (EG.run inst).EG.energy in
  (* A grid containing (almost) every achievable speed p/dur. *)
  let speeds = Array.init 400 (fun i -> 0.02 *. float_of_int (i + 1)) in
  let rich = (EG.run ~speeds inst).EG.energy in
  Alcotest.(check bool)
    (Printf.sprintf "rich grid within 10%% (%.2f vs %.2f)" rich free)
    true
    (rich <= free *. 1.1 +. 1e-9)

let test_grid_schedule_valid () =
  let gen = Sched_workload.Suite.deadline_energy ~n:20 ~m:2 ~alpha:2. in
  let inst = Sched_workload.Gen.instance gen ~seed:9 in
  let r = EG.run ~speeds:[| 0.5; 1.; 2. |] inst in
  Schedule.assert_valid ~allow_parallel:true ~check_deadlines:true r.EG.schedule

(* --- Gantt --- *)

let test_gantt_renders () =
  let inst = Test_util.instance ~machines:2 [ (0., [| 2.; 2. |]); (0., [| 2.; 2. |]) ] in
  let s =
    Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst
  in
  let out = Gantt.render ~width:40 s in
  Alcotest.(check bool) "has machine rows" true
    (Test_util.contains out "m0" && Test_util.contains out "m1");
  Alcotest.(check bool) "has legend" true (Test_util.contains out "legend:");
  Alcotest.(check bool) "shows job symbols" true
    (Test_util.contains out "0=j0" && Test_util.contains out "1=j1")

let test_gantt_marks_rejection () =
  let inst = Test_util.instance [ (0., [| 100. |]); (1., [| 1. |]); (2., [| 1. |]) ] in
  let s =
    Test_util.schedule_of
      (Rejection.Flow_reject.policy (Rejection.Flow_reject.config ~eps:0.5 ~rule2:false ()))
      inst
  in
  let out = Gantt.render s in
  Alcotest.(check bool) "rejected marked with !" true (Test_util.contains out "0=j0!")

let test_gantt_empty () =
  let inst = Test_util.instance [ (0., [| 1. |]) ] in
  let b = Schedule.builder inst in
  Schedule.set_outcome b 0 (Outcome.Rejected { time = 0.; assigned_to = None; was_running = false });
  let s = Schedule.finalize b in
  Alcotest.(check string) "empty note" "(empty schedule)\n" (Gantt.render s)

(* Job k runs alone on machine k over the whole horizon, so row k is job
   k's symbol repeated: symbols are distinct for early ids and cycle
   through the 62 of [0-9A-Za-z]. *)
let test_gantt_symbols_cycle () =
  let m = 63 in
  let inst = Test_util.instance ~machines:m (List.init m (fun _ -> (0., Array.make m 1.))) in
  let b = Schedule.builder inst in
  for k = 0 to m - 1 do
    Schedule.add_segment b { Schedule.job = k; machine = k; start = 0.; stop = 1.; speed = 1. };
    Schedule.set_outcome b k
      (Outcome.Completed { machine = k; start = 0.; speed = 1.; finish = 1. })
  done;
  let rows = String.split_on_char '\n' (Gantt.render ~width:8 (Schedule.finalize b)) in
  let row i = List.nth rows (i + 2) in
  Alcotest.(check string) "machine 0 row" "m0  00000000" (row 0);
  Alcotest.(check string) "machine 1 row" "m1  11111111" (row 1);
  Alcotest.(check string) "job 62 cycles back to job 0's symbol" "m62 00000000" (row 62)

(* --- serialization --- *)

let test_roundtrip_simple () =
  let inst =
    Test_util.deadline_instance ~machines:1 ~alpha:2.5 [ (0., 4., [| 2. |]); (1., 6., [| 3. |]) ]
  in
  match Serialize.instance_of_string (Serialize.instance_to_string inst) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok inst' ->
      Alcotest.(check int) "n" (Instance.n inst) (Instance.n inst');
      Alcotest.(check int) "m" (Instance.m inst) (Instance.m inst');
      Array.iter2
        (fun (a : Job.t) (b : Job.t) ->
          Alcotest.(check int) "id" a.Job.id b.Job.id;
          Alcotest.(check (float 0.)) "release" a.Job.release b.Job.release;
          Alcotest.(check (float 0.)) "weight" a.Job.weight b.Job.weight;
          Alcotest.(check (option (float 0.))) "deadline" a.Job.deadline b.Job.deadline;
          Alcotest.(check (array (float 0.))) "sizes" a.Job.sizes b.Job.sizes)
        (Instance.jobs_by_release inst)
        (Instance.jobs_by_release inst')

let test_roundtrip_infinity_and_name () =
  let machines = Machine.fleet 2 in
  let jobs = [ Job.create ~id:0 ~release:0.5 ~sizes:[| Float.infinity; 1.5 |] () ] in
  let inst = Instance.create ~name:"my test instance" ~machines ~jobs () in
  match Serialize.instance_of_string (Serialize.instance_to_string inst) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok inst' ->
      Alcotest.(check string) "name with spaces" "my test instance" inst'.Instance.name;
      Alcotest.(check (float 0.)) "infinity survives" Float.infinity
        (Job.size (Instance.job inst' 0) 0)

let test_roundtrip_property () =
  QCheck.Test.make ~name:"serialize round-trips generated instances" ~count:25
    QCheck.(pair (int_bound 10000) (int_range 0 5))
    (fun (seed, which) ->
      let gens = Sched_workload.Suite.all_flow ~n:20 ~m:3 in
      let gen = List.nth gens (which mod List.length gens) in
      let inst = Sched_workload.Gen.instance gen ~seed in
      match Serialize.instance_of_string (Serialize.instance_to_string inst) with
      | Error _ -> false
      | Ok inst' ->
          Instance.n inst = Instance.n inst'
          && Array.for_all2
               (fun (a : Job.t) (b : Job.t) ->
                 a.Job.id = b.Job.id && a.Job.release = b.Job.release
                 && a.Job.weight = b.Job.weight && a.Job.deadline = b.Job.deadline
                 && a.Job.sizes = b.Job.sizes)
               (Instance.jobs_by_release inst)
               (Instance.jobs_by_release inst'))
  |> QCheck_alcotest.to_alcotest

let test_parse_errors () =
  let check_err text =
    match Serialize.instance_of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should fail: %s" text
  in
  check_err "machine 0 nonsense 3\nmachines 1\njobs 0";
  check_err "machines 2\nmachine 0 1 3\njobs 0";
  (* declared 2, found 1 *)
  check_err "garbage directive here"

let test_file_io () =
  let inst = Test_util.instance [ (0., [| 2. |]) ] in
  let path = Filename.temp_file "rejsched" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_instance ~path inst;
      match Serialize.load_instance ~path with
      | Ok inst' -> Alcotest.(check int) "n" 1 (Instance.n inst')
      | Error msg -> Alcotest.failf "load failed: %s" msg)

let test_segments_csv () =
  let inst = Test_util.instance [ (0., [| 2. |]) ] in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst in
  let csv = Serialize.segments_to_csv s in
  Alcotest.(check bool) "header" true (Test_util.contains csv "job,machine,start");
  Alcotest.(check bool) "row" true (Test_util.contains csv "0,0,0,2,1,completed")

(* --- Theorem 2 dual certificate --- *)

let certify_energy seed eps alpha =
  let module FE = Rejection.Flow_energy_reject in
  let gen = Sched_workload.Suite.weighted_energy ~n:50 ~m:2 ~alpha in
  let inst = Sched_workload.Gen.instance gen ~seed in
  let trace = Sched_sim.Trace.create () in
  let schedule, st, _ = Sched_sim.Driver.run ~trace (FE.policy (FE.config ~eps ())) inst in
  let gammas = Array.init 2 (FE.gamma_of_machine st) in
  Sched_lp.Dual_fit_energy.certify ~eps ~gammas ~lambdas:(FE.lambdas st) inst trace schedule

let test_energy_dual_feasible () =
  let r = certify_energy 42 0.25 3. in
  Alcotest.(check bool)
    (Printf.sprintf "min slack %.3e >= -1e-6" r.Sched_lp.Dual_fit_energy.min_constraint_slack)
    true
    (r.Sched_lp.Dual_fit_energy.min_constraint_slack >= -1e-6);
  Alcotest.(check bool) "many constraints" true
    (r.Sched_lp.Dual_fit_energy.constraints_checked > 1000);
  Alcotest.(check bool) "dual positive" true (r.Sched_lp.Dual_fit_energy.dual_objective > 0.)

let test_energy_dual_feasible_property () =
  QCheck.Test.make ~name:"Lemma 6 dual feasibility across seeds/eps/alpha" ~count:10
    QCheck.(triple (int_bound 1000) (float_range 0.15 0.5) (float_range 1.8 3.2))
    (fun (seed, eps, alpha) ->
      let r = certify_energy seed eps alpha in
      r.Sched_lp.Dual_fit_energy.min_constraint_slack >= -1e-6
      && r.Sched_lp.Dual_fit_energy.dual_objective > 0.)
  |> QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "augment structure" `Quick test_augment_structure;
    Alcotest.test_case "augmentation helps" `Quick test_augment_helps;
    Alcotest.test_case "augment factor 1 identity" `Quick test_augment_factor_one_identity;
    test_grid_feasible_and_bounded ();
    Alcotest.test_case "rich grid converges" `Quick test_rich_grid_converges;
    Alcotest.test_case "grid schedule valid" `Quick test_grid_schedule_valid;
    Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
    Alcotest.test_case "gantt marks rejection" `Quick test_gantt_marks_rejection;
    Alcotest.test_case "gantt empty" `Quick test_gantt_empty;
    Alcotest.test_case "gantt symbols" `Quick test_gantt_symbols_cycle;
    Alcotest.test_case "serialize roundtrip" `Quick test_roundtrip_simple;
    Alcotest.test_case "serialize infinity+name" `Quick test_roundtrip_infinity_and_name;
    test_roundtrip_property ();
    Alcotest.test_case "serialize parse errors" `Quick test_parse_errors;
    Alcotest.test_case "serialize file io" `Quick test_file_io;
    Alcotest.test_case "segments csv" `Quick test_segments_csv;
    Alcotest.test_case "thm2 dual feasible" `Quick test_energy_dual_feasible;
    test_energy_dual_feasible_property ();
  ]

(* --- SVG --- *)

let test_svg_renders () =
  let inst = Test_util.instance ~machines:2 [ (0., [| 2.; 2. |]); (0., [| 2.; 2. |]) ] in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst in
  let out = Svg.render ~width:400 s in
  Alcotest.(check bool) "svg document" true
    (Test_util.contains out "<svg" && Test_util.contains out "</svg>");
  Alcotest.(check bool) "has job tooltips" true (Test_util.contains out "<title>job 0");
  Alcotest.(check bool) "has machine labels" true (Test_util.contains out ">m1<")

let test_svg_marks_rejection () =
  let inst = Test_util.instance [ (0., [| 100. |]); (1., [| 1. |]); (2., [| 1. |]) ] in
  let s =
    Test_util.schedule_of
      (Rejection.Flow_reject.policy (Rejection.Flow_reject.config ~eps:0.5 ~rule2:false ()))
      inst
  in
  let out = Svg.render s in
  Alcotest.(check bool) "rejected segment colored" true (Test_util.contains out "(rejected)")

let test_svg_save () =
  let inst = Test_util.instance [ (0., [| 1. |]) ] in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.fifo inst in
  let path = Filename.temp_file "rejsched" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Svg.save ~path s;
      let text = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check bool) "file has svg" true (Test_util.contains text "<svg"))

(* --- assignment-YDS energy lower bound --- *)

let test_assignment_yds_bound () =
  let gen = Sched_workload.Suite.deadline_energy ~n:8 ~m:2 ~alpha:3. in
  let inst = Sched_workload.Gen.instance gen ~seed:2 in
  match Sched_energy.Energy_bounds.assignment_yds_lb inst with
  | None -> Alcotest.fail "should be computable at n=8"
  | Some lb ->
      let perjob = Sched_energy.Energy_bounds.deadline_energy_lb inst in
      Alcotest.(check bool) "tighter than per-job bound" true (lb >= perjob -. 1e-9);
      let greedy = (Rejection.Energy_config_greedy.run inst).Rejection.Energy_config_greedy.energy in
      Alcotest.(check bool) "still a lower bound" true (lb <= greedy +. 1e-9)

let test_assignment_yds_caps () =
  let gen = Sched_workload.Suite.deadline_energy ~n:20 ~m:2 ~alpha:3. in
  let inst = Sched_workload.Gen.instance gen ~seed:1 in
  Alcotest.(check bool) "None beyond max_n" true
    (Sched_energy.Energy_bounds.assignment_yds_lb ~max_n:10 inst = None)

let test_assignment_yds_single_machine_matches_yds () =
  let gen = Sched_workload.Suite.deadline_energy ~n:8 ~m:1 ~alpha:2. in
  let inst = Sched_workload.Gen.instance gen ~seed:4 in
  let a = Option.get (Sched_energy.Energy_bounds.assignment_yds_lb inst) in
  let y = Option.get (Sched_energy.Energy_bounds.yds_lb inst) in
  Alcotest.(check (float 1e-9)) "equals plain YDS at m=1" y a

let suite =
  suite
  @ [
      Alcotest.test_case "svg renders" `Quick test_svg_renders;
      Alcotest.test_case "svg marks rejection" `Quick test_svg_marks_rejection;
      Alcotest.test_case "svg save" `Quick test_svg_save;
      Alcotest.test_case "assignment-yds bound" `Quick test_assignment_yds_bound;
      Alcotest.test_case "assignment-yds caps" `Quick test_assignment_yds_caps;
      Alcotest.test_case "assignment-yds m=1" `Quick test_assignment_yds_single_machine_matches_yds;
    ]
