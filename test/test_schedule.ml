open Sched_model

(* Fixture: two machines, two jobs; job 0 runs on machine 0, job 1 on 1. *)
let two_job_instance () =
  Test_util.instance ~machines:2 [ (0., [| 2.; 2. |]); (1., [| 3.; 3. |]) ]

let completed_schedule () =
  let inst = two_job_instance () in
  let b = Schedule.builder inst in
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 2.; speed = 1. };
  Schedule.set_outcome b 0 (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 2. });
  Schedule.add_segment b { Schedule.job = 1; machine = 1; start = 1.; stop = 4.; speed = 1. };
  Schedule.set_outcome b 1 (Outcome.Completed { machine = 1; start = 1.; speed = 1.; finish = 4. });
  Schedule.finalize b

let test_valid_schedule () =
  let s = completed_schedule () in
  Schedule.assert_valid s;
  Alcotest.(check int) "completed" 2 (Test_util.completed_count s);
  Alcotest.(check int) "rejected" 0 (Metrics.rejection s).Metrics.count

let test_missing_outcome () =
  let inst = two_job_instance () in
  let b = Schedule.builder inst in
  Schedule.set_outcome b 0 (Outcome.Rejected { time = 0.; assigned_to = None; was_running = false });
  Alcotest.(check bool) "finalize fails" true
    (try
       ignore (Schedule.finalize b);
       false
     with Invalid_argument _ -> true)

let test_double_outcome () =
  let inst = two_job_instance () in
  let b = Schedule.builder inst in
  Schedule.set_outcome b 0 (Outcome.Rejected { time = 0.; assigned_to = None; was_running = false });
  Alcotest.(check bool) "double set fails" true
    (try
       Schedule.set_outcome b 0
         (Outcome.Rejected { time = 1.; assigned_to = None; was_running = false });
       false
     with Invalid_argument _ -> true)

let invalid_with mutate =
  let inst = two_job_instance () in
  let b = Schedule.builder inst in
  mutate b;
  let s = Schedule.finalize b in
  not (Test_util.valid s)

let test_detects_overlap () =
  Alcotest.(check bool) "overlap detected" true
    (invalid_with (fun b ->
         Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 2.; speed = 1. };
         Schedule.set_outcome b 0
           (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 2. });
         Schedule.add_segment b { Schedule.job = 1; machine = 0; start = 1.; stop = 4.; speed = 1. };
         Schedule.set_outcome b 1
           (Outcome.Completed { machine = 0; start = 1.; speed = 1.; finish = 4. })))

let test_allows_parallel_when_asked () =
  let inst = two_job_instance () in
  let b = Schedule.builder inst in
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 2.; speed = 1. };
  Schedule.set_outcome b 0 (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 2. });
  Schedule.add_segment b { Schedule.job = 1; machine = 0; start = 1.; stop = 4.; speed = 1. };
  Schedule.set_outcome b 1 (Outcome.Completed { machine = 0; start = 1.; speed = 1.; finish = 4. });
  let s = Schedule.finalize b in
  Alcotest.(check bool) "parallel ok" true
    (Test_util.valid ~allow_parallel:true s)

let test_detects_preemption () =
  (* Job 0 split into two segments: non-preemption violated. *)
  Alcotest.(check bool) "preemption detected" true
    (invalid_with (fun b ->
         Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 1.; speed = 1. };
         Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 2.; stop = 3.; speed = 1. };
         Schedule.set_outcome b 0
           (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 3. });
         Schedule.set_outcome b 1
           (Outcome.Rejected { time = 1.; assigned_to = None; was_running = false })))

let test_detects_early_start () =
  (* Job 1 released at 1 but started at 0.5. *)
  Alcotest.(check bool) "early start detected" true
    (invalid_with (fun b ->
         Schedule.add_segment b { Schedule.job = 1; machine = 0; start = 0.5; stop = 3.5; speed = 1. };
         Schedule.set_outcome b 1
           (Outcome.Completed { machine = 0; start = 0.5; speed = 1.; finish = 3.5 });
         Schedule.set_outcome b 0
           (Outcome.Rejected { time = 0.; assigned_to = None; was_running = false })))

let test_detects_volume_mismatch () =
  (* Job 0 has size 2 but only 1 time unit at speed 1. *)
  Alcotest.(check bool) "volume mismatch detected" true
    (invalid_with (fun b ->
         Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 1.; speed = 1. };
         Schedule.set_outcome b 0
           (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 1. });
         Schedule.set_outcome b 1
           (Outcome.Rejected { time = 1.; assigned_to = None; was_running = false })))

let test_speed_scales_volume () =
  (* Speed 2 halves the needed duration. *)
  let inst = two_job_instance () in
  let b = Schedule.builder inst in
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 1.; speed = 2. };
  Schedule.set_outcome b 0 (Outcome.Completed { machine = 0; start = 0.; speed = 2.; finish = 1. });
  Schedule.set_outcome b 1 (Outcome.Rejected { time = 1.; assigned_to = None; was_running = false });
  let s = Schedule.finalize b in
  Alcotest.(check bool) "speed-2 execution valid" true
    (Test_util.valid s)

let test_rejected_partial_segment () =
  let inst = two_job_instance () in
  let b = Schedule.builder inst in
  (* Job 0 ran [0, 1) then was rejected at 1 (size 2: strictly partial). *)
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 1.; speed = 1. };
  Schedule.set_outcome b 0 (Outcome.Rejected { time = 1.; assigned_to = Some 0; was_running = true });
  Schedule.set_outcome b 1 (Outcome.Rejected { time = 1.; assigned_to = Some 1; was_running = false });
  let s = Schedule.finalize b in
  Alcotest.(check bool) "partial segment valid" true
    (Test_util.valid s)

let test_rejected_overrun_detected () =
  (* Rejected job processed its full size: should have completed instead. *)
  Alcotest.(check bool) "overrun detected" true
    (invalid_with (fun b ->
         Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 2.; speed = 1. };
         Schedule.set_outcome b 0
           (Outcome.Rejected { time = 2.; assigned_to = Some 0; was_running = true });
         Schedule.set_outcome b 1
           (Outcome.Rejected { time = 1.; assigned_to = None; was_running = false })))

let test_deadline_check () =
  let inst = Test_util.deadline_instance [ (0., 2., [| 3. |]) ] in
  let b = Schedule.builder inst in
  Schedule.add_segment b { Schedule.job = 0; machine = 0; start = 0.; stop = 3.; speed = 1. };
  Schedule.set_outcome b 0 (Outcome.Completed { machine = 0; start = 0.; speed = 1.; finish = 3. });
  let s = Schedule.finalize b in
  Alcotest.(check bool) "deadline violation detected" true
    (not (Test_util.valid ~check_deadlines:true s));
  Alcotest.(check bool) "ignorable" true
    (Test_util.valid ~check_deadlines:false s)

let test_segments_of_machine_sorted () =
  let s = completed_schedule () in
  let segs = Schedule.segments_of_machine s 0 in
  Alcotest.(check int) "one segment on m0" 1 (List.length segs);
  Alcotest.(check int) "none on missing machine job" 1
    (List.length (Schedule.segments_of_machine s 1))

let suite =
  [
    Alcotest.test_case "valid schedule accepted" `Quick test_valid_schedule;
    Alcotest.test_case "missing outcome" `Quick test_missing_outcome;
    Alcotest.test_case "double outcome" `Quick test_double_outcome;
    Alcotest.test_case "detects overlap" `Quick test_detects_overlap;
    Alcotest.test_case "allows declared parallelism" `Quick test_allows_parallel_when_asked;
    Alcotest.test_case "detects preemption" `Quick test_detects_preemption;
    Alcotest.test_case "detects early start" `Quick test_detects_early_start;
    Alcotest.test_case "detects volume mismatch" `Quick test_detects_volume_mismatch;
    Alcotest.test_case "speed scales volume" `Quick test_speed_scales_volume;
    Alcotest.test_case "rejected partial segment" `Quick test_rejected_partial_segment;
    Alcotest.test_case "rejected overrun detected" `Quick test_rejected_overrun_detected;
    Alcotest.test_case "deadline check" `Quick test_deadline_check;
    Alcotest.test_case "segments sorted per machine" `Quick test_segments_of_machine_sorted;
  ]
