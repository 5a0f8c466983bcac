(* Smoke tests for every pretty-printer: formatting must never raise and
   must contain the load-bearing numbers. *)

open Sched_model

let render pp v = Format.asprintf "%a" pp v

let test_job_pp () =
  let j = Job.create ~id:3 ~release:1.5 ~weight:2. ~deadline:9. ~sizes:[| 2.; Float.infinity |] () in
  let out = render Job.pp j in
  Alcotest.(check bool) "mentions id and deadline" true
    (Test_util.contains out "job#3" && Test_util.contains out "d=9")

let test_instance_pp_stats () =
  let inst = Test_util.instance ~machines:2 [ (0., [| 2.; 3. |]) ] in
  let out = render Instance.pp_stats inst in
  Alcotest.(check bool) "n and m" true (Test_util.contains out "n=1" && Test_util.contains out "m=2")

let test_outcome_pp () =
  let c = Outcome.Completed { machine = 0; start = 1.; speed = 2.; finish = 3. } in
  let r = Outcome.Rejected { time = 4.; assigned_to = Some 1; was_running = true } in
  Alcotest.(check bool) "completed" true (Test_util.contains (render Outcome.pp c) "completed");
  Alcotest.(check bool) "rejected mid-run" true (Test_util.contains (render Outcome.pp r) "mid-run")

let test_summary_pp () =
  let s = Sched_stats.Summary.of_array [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "mean present" true
    (Test_util.contains (render Sched_stats.Summary.pp s) "mean=2")

let suite =
  [
    Alcotest.test_case "job pp" `Quick test_job_pp;
    Alcotest.test_case "instance pp_stats" `Quick test_instance_pp_stats;
    Alcotest.test_case "outcome pp" `Quick test_outcome_pp;
    Alcotest.test_case "summary pp" `Quick test_summary_pp;
  ]
