open Sched_model
module RS = Sched_baselines.Restart_spt

let test_driver_restart_mechanics () =
  (* A policy that restarts the running job once when job 1 arrives. *)
  let policy =
    {
      Sched_sim.Driver.name = "restart-once";
      init = (fun _ -> ());
      on_arrival =
        (fun () view (j : Job.t) ->
          let restart =
            if j.Job.id = 1 then
              match Sched_sim.Driver.running_on view 0 with
              | Some r -> [ r.Sched_sim.Driver.job.Job.id ]
              | None -> []
            else []
          in
          { Sched_sim.Driver.dispatch_to = 0; reject = []; restart });
      select =
        (fun () view i ->
          match Sched_sim.Driver.pending view i with
          | [] -> None
          | first :: rest ->
              (* Shortest first so the freshly requeued long job waits. *)
              let shortest =
                List.fold_left
                  (fun (a : Job.t) (l : Job.t) -> if Job.size l i < Job.size a i then l else a)
                  first rest
              in
              Some { Sched_sim.Driver.job = shortest.Job.id; speed = 1.0 });
    }
  in
  let inst = Test_util.instance [ (0., [| 10. |]); (2., [| 1. |]) ] in
  let trace = Sched_sim.Trace.create () in
  let s = Test_util.schedule_of ~trace policy inst in
  Schedule.assert_valid ~allow_restarts:true s;
  (* Job 0 ran [0,2), was killed, job 1 ran [2,3), job 0 reran [3,13). *)
  (match Schedule.outcome s 0 with
  | Outcome.Completed c ->
      Alcotest.(check (float 1e-9)) "final start" 3. c.Outcome.start;
      Alcotest.(check (float 1e-9)) "final finish" 13. c.Outcome.finish
  | Outcome.Rejected _ -> Alcotest.fail "job 0 must complete");
  Alcotest.(check int) "three segments total" 3 (List.length s.Schedule.segments);
  (* Wasted volume = the 2 units of the aborted attempt. *)
  Alcotest.(check (float 1e-9)) "wasted work" 2. (RS.wasted_work s);
  (* The plain validator must reject this schedule. *)
  Alcotest.(check bool) "strict validation fails" true
    (not (Test_util.valid s));
  (* Trace carries the Restart event. *)
  let wasted =
    List.find_map
      (fun (e : Sched_sim.Trace.entry) ->
        match e.Sched_sim.Trace.event with
        | Sched_sim.Trace.Restart { wasted; _ } -> Some wasted
        | _ -> None)
      (Sched_sim.Trace.events trace)
  in
  Alcotest.(check (option (float 1e-9))) "trace wasted" (Some 2.) wasted

let test_restart_not_running_raises () =
  let policy =
    {
      Sched_sim.Driver.name = "bad-restart";
      init = (fun _ -> ());
      on_arrival =
        (fun () _ (j : Job.t) -> { Sched_sim.Driver.dispatch_to = 0; reject = []; restart = [ j.Job.id ] });
      select = (fun () _ _ -> None);
    }
  in
  let inst = Test_util.instance [ (0., [| 1. |]) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Test_util.schedule_of policy inst);
       false
     with Invalid_argument _ -> true)

let test_restart_policy_serves_everything () =
  QCheck.Test.make ~name:"restart policy completes all jobs with valid schedules" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let gen = Sched_workload.Suite.flow_bimodal ~n:80 ~m:2 in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s = Test_util.schedule_of (RS.policy (RS.config ())) inst in
      (Test_util.valid ~allow_restarts:true ~check_deadlines:false s)
      && (Metrics.rejection s).Metrics.count = 0
      && Test_util.completed_count s = 80)
  |> QCheck_alcotest.to_alcotest

let test_restart_cap_respected () =
  let gen = Sched_workload.Suite.flow_bimodal ~n:120 ~m:2 in
  let inst = Sched_workload.Gen.instance gen ~seed:3 in
  let trace = Sched_sim.Trace.create () in
  let _, st, _ = Sched_sim.Driver.run ~trace (RS.policy (RS.config ~max_restarts:1 ())) inst in
  (* No job may be restarted twice. *)
  let per_job = Hashtbl.create 16 in
  List.iter
    (fun (e : Sched_sim.Trace.entry) ->
      match e.Sched_sim.Trace.event with
      | Sched_sim.Trace.Restart { job; _ } ->
          Hashtbl.replace per_job job (1 + Option.value ~default:0 (Hashtbl.find_opt per_job job))
      | _ -> ())
    (Sched_sim.Trace.events trace);
  Hashtbl.iter (fun _ c -> Alcotest.(check bool) "at most once" true (c <= 1)) per_job;
  Alcotest.(check bool) "some restarts happened" true (RS.restarts st > 0)

let test_restart_helps_on_elephants () =
  (* The scenario the restart rule exists for (the Lemma 1 pattern): an
     elephant grabs an otherwise-idle machine, then mice trickle in.
     Killing the elephant unblocks every mouse; without restarts they all
     wait the full elephant. *)
  (* Mice arrive faster than they are served so the queue never drains and
     the killed elephant cannot sneak back in mid-stream. *)
  let inst =
    Test_util.instance
      ((0., [| 100. |]) :: List.init 30 (fun k -> (1. +. (0.5 *. float_of_int k), [| 1. |])))
  in
  let with_restart, st, _ =
    Sched_sim.Driver.run (RS.policy (RS.config ~kill_factor:3. ~max_restarts:1 ())) inst
  in
  let without = Test_util.schedule_of (RS.policy (RS.config ~kill_factor:1e12 ())) inst in
  List.iter (Schedule.assert_valid ~allow_restarts:true ~check_deadlines:false) [ with_restart; without ];
  Alcotest.(check bool) "the elephant was killed" true (RS.restarts st >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "flow with restarts (%.0f) well below without (%.0f)"
       (Test_util.total_flow with_restart) (Test_util.total_flow without))
    true
    (Test_util.total_flow with_restart < 0.5 *. Test_util.total_flow without)

let suite =
  [
    Alcotest.test_case "driver restart mechanics" `Quick test_driver_restart_mechanics;
    Alcotest.test_case "restart of non-running raises" `Quick test_restart_not_running_raises;
    test_restart_policy_serves_everything ();
    Alcotest.test_case "restart cap respected" `Quick test_restart_cap_respected;
    Alcotest.test_case "restarts help on elephants" `Quick test_restart_helps_on_elephants;
  ]
