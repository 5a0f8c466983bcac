(* The streaming checker (Sched_check.Stream_check): on real runs it
   reports what the batch replay of the same run's schedule reports, it
   reports each class of planted fault in a real row stream, and its
   tables track the jobs in flight, not the jobs fed. *)

open Sched_model
open Sched_sim
module P = Sched_experiments.Policy_registry
module Check = Sched_check.Stream_check
module V = Sched_model.Violation

let show vs = Format.asprintf "%a" V.pp_list vs

(* A session run the way [rejsched run] drives one: feed a job to the
   session and the checker, drain to its release, check and release the
   new rows. *)
let stream_check ~retire (e : P.entry) instance =
  let trace = Trace.create () in
  let machines = instance.Instance.machines in
  let check = Check.create ~mode:(P.check_mode e) ~machines:(Array.length machines) () in
  let s = e.P.open_stream ~trace ~retire ~name:instance.Instance.name ~machines () in
  let take () =
    Check.rows check (Trace.recorder trace) ~newest:(Trace.unreleased trace);
    Trace.release trace (Trace.length trace)
  in
  Array.iter
    (fun (j : Job.t) ->
      s.P.ss_feed j;
      Check.feed check j;
      s.P.ss_drain_until j.Job.release;
      take ())
    (Instance.jobs_by_release instance);
  ignore (s.P.ss_close ());
  take ();
  Check.close check;
  Check.violations check

(* The (check, job) pairs of a violation list, sorted, without repeats. *)
let pairs vs =
  List.sort_uniq String.compare
    (List.map
       (fun (v : V.t) ->
         Printf.sprintf "%s job %d" (V.check_name v.V.check) (Option.value v.V.job ~default:(-1)))
       vs)

(* Both adapters of the one validator agree on a run: the stream checker
   over its rows, at either retire setting, reports the same (check, job)
   pairs as the batch replay of the entry's schedule. *)
let agree ~what (e : P.entry) inst =
  let batch = pairs (Schedule.violations ~mode:(P.check_mode e) (fst (e.P.run inst))) in
  List.iter
    (fun retire ->
      let streamed = stream_check ~retire e inst in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s (retire=%b): stream = batch replay" what e.P.name retire)
        batch (pairs streamed))
    [ false; true ]

let test_corpus_all_policies () =
  List.iter
    (fun (c : Sched_fuzz.Corpus.case) ->
      List.iter (fun e -> agree ~what:c.Sched_fuzz.Corpus.name e c.Sched_fuzz.Corpus.instance) P.all)
    (Sched_fuzz.Corpus.seeds ())

(* speed-augmented on a 1.5-speed fleet: Rule 1 can reject a job within
   Time's tolerance of its start, which the driver records as not
   running and lays no segment for (seed 4).  Seeds 1, 3 and 8 reject a
   job that has done its full size, and both adapters report it. *)
let test_speed_augmented_bimodal () =
  let e = Option.get (P.find "speed-augmented") in
  let gen = Sched_workload.Suite.flow_bimodal ~n:2000 ~m:4 in
  List.iter
    (fun seed ->
      agree ~what:(Printf.sprintf "bimodal seed %d" seed) e (Sched_workload.Gen.instance gen ~seed))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* Job 0 (size 100) starts at 0; jobs 1 and 2 (size 1) arrive at 1 and 2
   on the one machine, and the second arrival during job 0's run rejects
   it mid-run (Rule 1 at eps = 1/2).  Rows:
     dispatch 0 @0, start 0 @0, dispatch 1 @1, dispatch 2 @2,
     reject 0 @2 (running), start 1 @2, complete 1 @3, start 2 @3,
     complete 2 @4. *)
let fault_instance () = Test_util.instance [ (0., [| 100. |]); (1., [| 1. |]); (2., [| 1. |]) ]

let real_rows () =
  let inst = fault_instance () in
  let trace = Trace.create () in
  let policy = Rejection.Flow_reject.(policy (config ~eps:0.5 ~rule2:false ())) in
  ignore (Driver.run ~trace policy inst);
  (inst, Trace.events trace)

(* Checks a row list (the real one, edited) against the instance's jobs. *)
let check_rows inst entries =
  let t = Trace.create () in
  List.iter (fun { Trace.time; event } -> Trace.record t time event) entries;
  let check = Check.create ~machines:(Instance.m inst) () in
  Array.iter (Check.feed check) (Instance.jobs_by_release inst);
  Check.rows check (Trace.recorder t) ~newest:(Trace.length t);
  Check.close check;
  Check.violations check

let test_real_stream_clean () =
  let inst, rows = real_rows () in
  let expected =
    [ "dispatch 0 @0"; "start 0 @0"; "dispatch 1 @1"; "dispatch 2 @2"; "reject 0 @2";
      "start 1 @2"; "complete 1 @3"; "start 2 @3"; "complete 2 @4" ]
  in
  let label { Trace.time; event } =
    let kind, job =
      match event with
      | Trace.Dispatch { job; _ } -> ("dispatch", job)
      | Trace.Start { job; _ } -> ("start", job)
      | Trace.Complete { job; _ } -> ("complete", job)
      | Trace.Reject { job; _ } -> ("reject", job)
      | Trace.Restart { job; _ } -> ("restart", job)
    in
    Printf.sprintf "%s %d @%g" kind job time
  in
  Alcotest.(check (list string)) "the fixture's rows" expected (List.map label rows);
  Alcotest.(check string) "clean" "" (match check_rows inst rows with [] -> "" | vs -> show vs)

(* Edits the real rows: [f] maps each row to the rows that replace it. *)
let edit f = List.concat_map f

let expect ~what check ~job vs =
  if not (List.exists (fun (v : V.t) -> v.V.check = check && v.V.job = Some job) vs) then
    Alcotest.failf "%s: expected a %s violation for job %d, got:\n%s" what (V.check_name check) job
      (show vs)

let test_planted_faults () =
  let inst, rows = real_rows () in
  let at t e = { Trace.time = t; event = e } in
  let retime job kind time =
    edit (fun ({ Trace.event; _ } as r) ->
        match (event, kind) with
        | Trace.Start { job = j; _ }, `Start when j = job -> [ { r with Trace.time } ]
        | Trace.Complete { job = j; _ }, `Complete when j = job -> [ { r with Trace.time } ]
        | Trace.Reject { job = j; _ }, `Reject when j = job -> [ { r with Trace.time } ]
        | _ -> [ r ])
  in
  (* Job 1 starts at 0.5, before its release at 1. *)
  expect ~what:"start before release" V.Release_respect ~job:1
    (check_rows inst (retime 1 `Start 0.5 rows));
  (* Job 1 starts at 2 while job 0 still runs: its start row moves ahead
     of job 0's rejection. *)
  let busy =
    edit
      (function
        | { Trace.event = Trace.Reject { job = 0; _ }; _ } as r ->
            [ at 2. (Trace.Start { job = 1; machine = 0; speed = 1. }); r ]
        | { Trace.event = Trace.Start { job = 1; _ }; _ } -> []
        | r -> [ r ])
      rows
  in
  expect ~what:"start on a busy machine" V.Machine_overlap ~job:1 (check_rows inst busy);
  (* Job 1 (size 1, started at 2) completes at 2.5, then at 3.5. *)
  expect ~what:"early complete" V.Outcome_consistency ~job:1
    (check_rows inst (retime 1 `Complete 2.5 rows));
  expect ~what:"late complete" V.Outcome_consistency ~job:1
    (check_rows inst (retime 1 `Complete 3.5 rows));
  (* A second terminal row for job 2. *)
  expect ~what:"second terminal row" V.Exactly_once ~job:2
    (check_rows inst (rows @ [ at 4. (Trace.Complete { job = 2; machine = 0 }) ]));
  (* Job 2's complete row is missing. *)
  expect ~what:"no terminal row" V.Exactly_once ~job:2
    (check_rows inst
       (edit
          (function { Trace.event = Trace.Complete { job = 2; _ }; _ } -> [] | r -> [ r ])
          rows));
  (* Job 0's mid-run rejection comes at 100: it had done its whole size. *)
  let full = check_rows inst (retime 0 `Reject 100. rows) in
  expect ~what:"partial rejection did the full volume" V.Outcome_consistency ~job:0 full;
  Alcotest.(check bool) "the full-volume message" true
    (List.exists (fun (v : V.t) -> Test_util.contains v.V.detail "full size") full)

(* Jobs fed out of id order (serve numbers nothing) and never settled:
   close reports each, in ascending id order, whatever order they came
   in.  [rejsched run] prints these lines before exiting 3. *)
let test_close_reports_in_id_order () =
  let check = Check.create ~machines:2 () in
  List.iter
    (fun id -> Check.feed check (Job.create ~id ~release:0. ~sizes:[| 1.; 2. |] ()))
    [ 5; 2; 9 ];
  Check.close check;
  let vs = Check.violations check in
  Alcotest.(check (list (pair string (option int))))
    "never settled, by id"
    [ ("exactly-once", Some 2); ("exactly-once", Some 5); ("exactly-once", Some 9) ]
    (List.map (fun (v : V.t) -> (V.check_name v.V.check, v.V.job)) vs);
  List.iter
    (fun (v : V.t) ->
      Alcotest.(check string) "detail" "fed but never completed or rejected" v.V.detail)
    vs

(* 10^5 jobs through a retiring session: the checker's reachable heap,
   sampled at every arrival, stays within a fixed multiple of the jobs in
   flight at that moment (each in-flight job costs a table entry, a state
   record and the fed job; the per-machine cells are fixed), so it does
   not grow with the jobs fed. *)
let test_tables_track_in_flight () =
  let n = 100_000 and m = 4 in
  let gen = Sched_workload.Suite.flow_uniform ~n ~m in
  let trace = Trace.create () in
  let check = Check.create ~machines:m () in
  let s =
    Driver.Session.open_session ~trace ~retire:true ~machines:(Sched_workload.Gen.fleet gen)
      Rejection.Flow_reject.(policy (config ~eps:0.25 ()))
  in
  let fed = ref 0 and settled = ref 0 and peak = ref 0 and words = ref 0 in
  let take () =
    let rc = Trace.recorder trace and k = Trace.unreleased trace in
    let len = Sched_obs.Recorder.length rc in
    for r = len - k to len - 1 do
      match Sched_obs.Recorder.kind rc r with
      | Sched_obs.Recorder.Complete | Sched_obs.Recorder.Reject -> incr settled
      | _ -> ()
    done;
    Check.rows check rc ~newest:k;
    Trace.release trace (Trace.length trace)
  in
  Seq.iter
    (fun (j : Job.t) ->
      Driver.Session.feed s j;
      Check.feed check j;
      incr fed;
      Driver.Session.drain_until s j.Job.release;
      take ();
      let in_flight = !fed - !settled in
      if in_flight > !peak then peak := in_flight;
      let w = Obj.reachable_words (Obj.repr check) in
      if w > !words then words := w;
      if w > (40 * (in_flight + 1)) + (16 * (m + 1)) + 64 then
        Alcotest.failf "after %d arrivals: %d words for %d jobs in flight" !fed w in_flight)
    (Sched_workload.Gen.jobs gen ~seed:3);
  ignore (Driver.Session.close s);
  take ();
  Check.close check;
  Alcotest.(check int) "clean" 0 (List.length (Check.violations check));
  Alcotest.(check int) "every fed job settled" n !settled;
  Alcotest.(check bool)
    (Printf.sprintf "peak %d words for a peak of %d in flight, far below n = %d" !words !peak n)
    true
    (!words <= (40 * (!peak + 1)) + (16 * (m + 1)) + 64 && !words < n / 10)

let suite =
  [
    Alcotest.test_case "corpus x registry: accepts and flags what the batch replay does" `Quick
      test_corpus_all_policies;
    Alcotest.test_case "a real stream checks clean" `Quick test_real_stream_clean;
    Alcotest.test_case "planted faults, one per check class" `Quick test_planted_faults;
    Alcotest.test_case "tables track the jobs in flight" `Quick test_tables_track_in_flight;
    Alcotest.test_case "close reports unsettled jobs in id order" `Quick
      test_close_reports_in_id_order;
    Alcotest.test_case "speed-augmented bimodal: stream and batch replay agree" `Quick
      test_speed_augmented_bimodal;
  ]
