open Sched_model
open Sched_sim

(* A minimal FIFO policy on machine (id mod m), used to exercise the driver
   mechanics directly. *)
let fifo_policy ?(target = fun (j : Job.t) -> j.Job.id mod Array.length j.Job.sizes) () =
  {
    Driver.name = "test-fifo";
    init = (fun _ -> ());
    on_arrival = (fun () _view j -> Driver.dispatch (target j));
    select =
      (fun () view i ->
        match Driver.pending view i with
        | [] -> None
        | first :: rest ->
            let earliest =
              List.fold_left
                (fun (acc : Job.t) (l : Job.t) ->
                  if (l.Job.release, l.Job.id) < (acc.Job.release, acc.Job.id) then l else acc)
                first rest
            in
            Some { Driver.job = earliest.Job.id; speed = 1.0 });
  }

let test_single_job () =
  let inst = Test_util.instance [ (1., [| 3. |]) ] in
  let s = Test_util.schedule_of (fifo_policy ~target:(fun _ -> 0) ()) inst in
  Schedule.assert_valid s;
  match Schedule.outcome s 0 with
  | Outcome.Completed c ->
      Alcotest.(check (float 1e-9)) "start at release" 1. c.Outcome.start;
      Alcotest.(check (float 1e-9)) "finish" 4. c.Outcome.finish
  | Outcome.Rejected _ -> Alcotest.fail "should complete"

let test_fifo_sequencing () =
  let inst = Test_util.instance [ (0., [| 2. |]); (0.5, [| 2. |]); (1., [| 2. |]) ] in
  let s = Test_util.schedule_of (fifo_policy ~target:(fun _ -> 0) ()) inst in
  Schedule.assert_valid s;
  let finish id =
    match Schedule.outcome s id with
    | Outcome.Completed c -> c.Outcome.finish
    | Outcome.Rejected _ -> Float.nan
  in
  Alcotest.(check (float 1e-9)) "job0" 2. (finish 0);
  Alcotest.(check (float 1e-9)) "job1" 4. (finish 1);
  Alcotest.(check (float 1e-9)) "job2" 6. (finish 2)

let test_machine_speed () =
  let machines = [| Machine.create ~id:0 ~speed:2. () |] in
  let jobs = [ Job.create ~id:0 ~release:0. ~sizes:[| 4. |] () ] in
  let inst = Instance.create ~machines ~jobs () in
  let s = Test_util.schedule_of (fifo_policy ~target:(fun _ -> 0) ()) inst in
  match Schedule.outcome s 0 with
  | Outcome.Completed c -> Alcotest.(check (float 1e-9)) "speed-2 finish" 2. c.Outcome.finish
  | Outcome.Rejected _ -> Alcotest.fail "should complete"

let test_exec_speed () =
  (* A policy starting everything at execution speed 4. *)
  let policy =
    {
      Driver.name = "speedy";
      init = (fun _ -> ());
      on_arrival = (fun () _ _ -> Driver.dispatch 0);
      select =
        (fun () view i ->
          match Driver.pending view i with
          | [] -> None
          | (j : Job.t) :: _ -> Some { Driver.job = j.Job.id; speed = 4.0 });
    }
  in
  let inst = Test_util.instance [ (0., [| 8. |]) ] in
  let s = Test_util.schedule_of policy inst in
  match Schedule.outcome s 0 with
  | Outcome.Completed c ->
      Alcotest.(check (float 1e-9)) "finish" 2. c.Outcome.finish;
      Alcotest.(check (float 1e-9)) "speed recorded" 4. c.Outcome.speed
  | Outcome.Rejected _ -> Alcotest.fail "should complete"

(* Rejection mechanics: a policy that rejects the running job whenever a new
   one arrives. *)
let reject_running_policy () =
  {
    Driver.name = "reject-running";
    init = (fun _ -> ());
    on_arrival =
      (fun () view (j : Job.t) ->
        let reject =
          match Driver.running_on view 0 with
          | Some r -> [ r.Driver.job.Job.id ]
          | None -> []
        in
        ignore j;
        { Driver.dispatch_to = 0; reject; restart = [] });
    select =
      (fun () view i ->
        match Driver.pending view i with
        | [] -> None
        | (j : Job.t) :: _ -> Some { Driver.job = j.Job.id; speed = 1.0 });
  }

let test_midrun_rejection () =
  let inst = Test_util.instance [ (0., [| 10. |]); (3., [| 1. |]) ] in
  let trace = Trace.create () in
  let s = Test_util.schedule_of ~trace (reject_running_policy ()) inst in
  Schedule.assert_valid s;
  (match Schedule.outcome s 0 with
  | Outcome.Rejected r ->
      Alcotest.(check (float 1e-9)) "rejected at arrival" 3. r.Outcome.time;
      Alcotest.(check bool) "was running" true r.Outcome.was_running
  | Outcome.Completed _ -> Alcotest.fail "job 0 should be rejected");
  (* The partial segment [0, 3) must be recorded. *)
  let segs = Schedule.segments_of_machine s 0 in
  Alcotest.(check int) "two segments (partial + job1)" 2 (List.length segs);
  (* Trace has a Reject event with the right remaining volume. *)
  let remaining =
    List.find_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with Trace.Reject { remaining; _ } -> Some remaining | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check (option (float 1e-9))) "remaining 7" (Some 7.) remaining

let test_pending_rejection () =
  (* Reject a pending (not running) job. *)
  let policy =
    {
      Driver.name = "reject-second";
      init = (fun _ -> ());
      on_arrival =
        (fun () _view (j : Job.t) ->
          if j.Job.id = 2 then { Driver.dispatch_to = 0; reject = [ 1 ]; restart = [] }
          else Driver.dispatch 0);
      select =
        (fun () view i ->
          match Driver.pending view i with
          | [] -> None
          | first :: rest ->
              let earliest =
                List.fold_left
                  (fun (a : Job.t) (l : Job.t) -> if l.Job.id < a.Job.id then l else a)
                  first rest
              in
              Some { Driver.job = earliest.Job.id; speed = 1.0 });
    }
  in
  let inst = Test_util.instance [ (0., [| 10. |]); (1., [| 5. |]); (2., [| 5. |]) ] in
  let s = Test_util.schedule_of policy inst in
  Schedule.assert_valid s;
  match Schedule.outcome s 1 with
  | Outcome.Rejected r ->
      Alcotest.(check bool) "not running" false r.Outcome.was_running;
      Alcotest.(check (option int)) "assigned machine" (Some 0) r.Outcome.assigned_to
  | Outcome.Completed _ -> Alcotest.fail "job 1 should be rejected"

let test_self_rejection () =
  (* The newly arrived job may itself be rejected. *)
  let policy =
    {
      Driver.name = "reject-self";
      init = (fun _ -> ());
      on_arrival = (fun () _ (j : Job.t) -> { Driver.dispatch_to = 0; reject = [ j.Job.id ]; restart = [] });
      select = (fun () _ _ -> None);
    }
  in
  let inst = Test_util.instance [ (0., [| 1. |]) ] in
  let s = Test_util.schedule_of policy inst in
  match Schedule.outcome s 0 with
  | Outcome.Rejected r -> Alcotest.(check (float 1e-9)) "at release" 0. r.Outcome.time
  | Outcome.Completed _ -> Alcotest.fail "should be rejected"

let test_invalid_dispatch_raises () =
  let policy =
    {
      (fifo_policy ()) with
      Driver.on_arrival = (fun () _ _ -> Driver.dispatch 7);
    }
  in
  let inst = Test_util.instance [ (0., [| 1. |]) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Test_util.schedule_of policy inst);
       false
     with Invalid_argument _ -> true)

let test_ineligible_dispatch_raises () =
  let inst = Test_util.instance ~machines:2 [ (0., [| Float.infinity; 1. |]) ] in
  let policy = fifo_policy ~target:(fun _ -> 0) () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Test_util.schedule_of policy inst);
       false
     with Invalid_argument _ -> true)

let test_unknown_rejection_raises () =
  let policy =
    {
      (fifo_policy ~target:(fun _ -> 0) ()) with
      Driver.on_arrival = (fun () _ _ -> { Driver.dispatch_to = 0; reject = [ 99 ]; restart = [] });
    }
  in
  let inst = Test_util.instance [ (0., [| 1. |]) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Test_util.schedule_of policy inst);
       false
     with Invalid_argument _ -> true)

let test_trace_event_counts () =
  let inst = Test_util.instance [ (0., [| 2. |]); (1., [| 2. |]) ] in
  let trace = Trace.create () in
  ignore (Driver.run ~trace (fifo_policy ~target:(fun _ -> 0) ()) inst);
  let count p = List.length (List.filter p (Trace.events trace)) in
  Alcotest.(check int) "dispatches" 2
    (count (fun e -> match e.Trace.event with Trace.Dispatch _ -> true | _ -> false));
  Alcotest.(check int) "starts" 2
    (count (fun e -> match e.Trace.event with Trace.Start _ -> true | _ -> false));
  Alcotest.(check int) "completions" 2
    (count (fun e -> match e.Trace.event with Trace.Complete _ -> true | _ -> false))

let test_queue_profile () =
  let inst = Test_util.instance [ (0., [| 2. |]); (0., [| 2. |]) ] in
  let trace = Trace.create () in
  ignore (Driver.run ~trace (fifo_policy ~target:(fun _ -> 0) ()) inst);
  match Trace.queue_profile trace ~machines:1 with
  | [ (0, steps) ] ->
      let counts = List.map snd steps in
      Alcotest.(check (list int)) "U profile" [ 1; 2; 1; 0 ] counts
  | _ -> Alcotest.fail "profile shape"

let test_determinism () =
  let gen = Sched_workload.Suite.flow_uniform ~n:60 ~m:3 in
  let inst = Sched_workload.Gen.instance gen ~seed:4 in
  let s1 = Test_util.schedule_of (fifo_policy ()) inst in
  let s2 = Test_util.schedule_of (fifo_policy ()) inst in
  Alcotest.(check (float 0.)) "identical flow" (Test_util.total_flow s1) (Test_util.total_flow s2)

let test_random_instances_valid () =
  QCheck.Test.make ~name:"driver schedules validate on random instances" ~count:30
    QCheck.(pair small_nat (int_bound 1000))
    (fun (n, seed) ->
      let n = max 1 (n mod 40) in
      let gen = Sched_workload.Suite.flow_uniform ~n ~m:3 in
      let inst = Sched_workload.Gen.instance gen ~seed in
      let s = Test_util.schedule_of (fifo_policy ()) inst in
      Test_util.valid s)
  |> QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "single job" `Quick test_single_job;
    Alcotest.test_case "fifo sequencing" `Quick test_fifo_sequencing;
    Alcotest.test_case "machine speed factor" `Quick test_machine_speed;
    Alcotest.test_case "execution speed" `Quick test_exec_speed;
    Alcotest.test_case "mid-run rejection" `Quick test_midrun_rejection;
    Alcotest.test_case "pending rejection" `Quick test_pending_rejection;
    Alcotest.test_case "self rejection" `Quick test_self_rejection;
    Alcotest.test_case "invalid dispatch raises" `Quick test_invalid_dispatch_raises;
    Alcotest.test_case "ineligible dispatch raises" `Quick test_ineligible_dispatch_raises;
    Alcotest.test_case "unknown rejection raises" `Quick test_unknown_rejection_raises;
    Alcotest.test_case "trace event counts" `Quick test_trace_event_counts;
    Alcotest.test_case "queue profile" `Quick test_queue_profile;
    Alcotest.test_case "determinism" `Quick test_determinism;
    test_random_instances_valid ();
  ]
