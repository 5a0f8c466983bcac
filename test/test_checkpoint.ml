(* Checkpoint/restore layer.

   Two halves: the Snapshot container codec (qcheck round-trip, plus
   every corruption mode must come back as a structured error, never an
   exception and never a silently-wrong payload), and the semantic
   guarantee — suspending a session at *every* feed boundary, wrapping /
   unwrapping / thawing it, and finishing the stream must reproduce the
   uninterrupted run byte-for-byte, oracle-audited on both sides. *)

open Sched_model
open Sched_sim
module P = Sched_experiments.Policy_registry
module Corpus = Sched_fuzz.Corpus

(* --- container codec --------------------------------------------------- *)

let arb_blob =
  (* Arbitrary bytes, including NULs and high bits — the payload is
     marshaled binary, not text. *)
  QCheck.(string_gen_of_size Gen.(int_range 0 512) Gen.(map Char.chr (int_range 0 255)))

let test_roundtrip =
  QCheck.Test.make ~name:"wrap |> unwrap round-trips policy and payload" ~count:200
    QCheck.(pair arb_blob arb_blob)
    (fun (policy, payload) ->
      match Snapshot.unwrap (Snapshot.wrap ~policy ~payload) with
      | Ok (p, q) -> String.equal p policy && String.equal q payload
      | Error _ -> false)
  |> QCheck_alcotest.to_alcotest

let test_bitflip =
  QCheck.Test.make ~name:"any single byte flip is detected" ~count:300
    QCheck.(triple arb_blob small_nat (int_range 1 255))
    (fun (payload, pos, delta) ->
      let snap = Snapshot.wrap ~policy:"flow-reject" ~payload in
      let pos = pos mod String.length snap in
      let bad = Bytes.of_string snap in
      Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor delta));
      match Snapshot.unwrap (Bytes.to_string bad) with
      | Error _ -> true
      | Ok _ -> false)
  |> QCheck_alcotest.to_alcotest

let test_truncation_fails_closed () =
  let snap = Snapshot.wrap ~policy:"greedy-spt" ~payload:"some frozen state bytes" in
  for len = 0 to String.length snap - 1 do
    match Snapshot.unwrap (String.sub snap 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of length %d unwrapped successfully" len
  done;
  (match Snapshot.unwrap (snap ^ "x") with
  | Error Snapshot.Truncated -> ()
  | Error e -> Alcotest.failf "trailing garbage: wrong error %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing garbage unwrapped successfully");
  match Snapshot.unwrap "not a snapshot at all" with
  | Error Snapshot.Bad_magic -> ()
  | Error e -> Alcotest.failf "alien file: wrong error %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "alien file unwrapped successfully"

(* --- suspend/resume ---------------------------------------------------- *)

let check_f what a b =
  if not (Float.equal a b) then Alcotest.failf "%s: %.17g <> %.17g" what a b

let compare_live what (lb : Driver.live_metrics) (lf : Driver.live_metrics) =
  let open Metrics in
  check_f (what ^ ": flow.total") lb.Driver.flow.total lf.Driver.flow.total;
  check_f (what ^ ": flow.weighted") lb.Driver.flow.weighted lf.Driver.flow.weighted;
  check_f (what ^ ": energy") lb.Driver.energy lf.Driver.energy;
  check_f (what ^ ": makespan") lb.Driver.makespan lf.Driver.makespan;
  Alcotest.(check int)
    (what ^ ": rejection.count")
    lb.Driver.rejection.count lf.Driver.rejection.count;
  check_f (what ^ ": rejection.weight") lb.Driver.rejection.weight lf.Driver.rejection.weight

(* Run the stream with a freeze -> wrap -> unwrap -> thaw pause after
   [cut] jobs (draining up to the last fed release first, as the serve
   loop does before writing its checkpoint). *)
let resumed_run (e : P.entry) instance ~cut =
  let jobs = Instance.jobs_by_release instance in
  let n = Array.length jobs in
  let s =
    e.P.open_stream ~name:instance.Instance.name ~machines:instance.Instance.machines ()
  in
  for i = 0 to cut - 1 do
    s.P.ss_feed jobs.(i)
  done;
  if cut > 0 then s.P.ss_drain_until jobs.(cut - 1).Job.release;
  let wrapped = Snapshot.wrap ~policy:e.P.name ~payload:(s.P.ss_freeze ()) in
  let payload =
    match Snapshot.unwrap wrapped with
    | Ok (name, p) ->
        Alcotest.(check string) "policy name rides the container" e.P.name name;
        p
    | Error err -> Alcotest.failf "unwrap of a fresh snapshot failed: %s" (Snapshot.error_to_string err)
  in
  let r = e.P.restore_stream payload in
  Alcotest.(check int) "fed count survives the thaw" cut (r.P.ss_fed ());
  for i = cut to n - 1 do
    r.P.ss_feed jobs.(i)
  done;
  r.P.ss_close ()

let check_all_boundaries ~what (e : P.entry) instance =
  let sb, lb = e.P.run instance in
  Test_util.assert_audit ~what e sb lb;
  let cb = Serialize.schedule_to_canonical_string sb in
  let n = Array.length (Instance.jobs_by_release instance) in
  for cut = 0 to n do
    let what = Printf.sprintf "%s/cut=%d" what cut in
    match resumed_run e instance ~cut with
    | Some sf, lf ->
        Test_util.assert_audit ~what e sf lf;
        let cf = Serialize.schedule_to_canonical_string sf in
        if not (String.equal cb cf) then
          Alcotest.failf "%s: resumed schedule diverges:\n--- batch ---\n%s\n--- resumed ---\n%s"
            what cb cf;
        compare_live what lb lf
    | None, _ -> Alcotest.failf "%s: no schedule from the resumed session" what
  done

(* Stateful policies are where a checkpoint can silently lose decisions:
   flow-reject carries fractional-flow accumulators, immediate-largest a
   rejection budget counter, restart-spt per-job restart marks.  Suspend
   at every boundary of a tie-heavy corpus case and a weighted random
   instance under each. *)
let test_suspend_every_boundary_corpus () =
  List.iter
    (fun (c : Corpus.case) ->
      let e = Option.get (P.find c.Corpus.policy) in
      check_all_boundaries
        ~what:(Printf.sprintf "%s/%s" c.Corpus.name e.P.name)
        e c.Corpus.instance)
    (List.filteri (fun k _ -> k < 2) (Corpus.seeds ()))

let test_suspend_every_boundary_stateful () =
  let instance = Test_util.random_instance ~weighted:true ~seed:5 ~n:14 ~m:3 () in
  List.iter
    (fun name ->
      let e = Option.get (P.find name) in
      check_all_boundaries ~what:(Printf.sprintf "random/%s" name) e instance)
    [ "flow-reject"; "flow-reject-weighted"; "immediate-largest"; "restart-spt" ]

(* The payload is plain marshaled data (no closures), for every policy
   the registry ships: each must resume at every boundary. *)
let test_suspend_every_boundary_registry () =
  let instance = Test_util.random_instance ~weighted:true ~seed:11 ~n:10 ~m:3 () in
  List.iter
    (fun (e : P.entry) -> check_all_boundaries ~what:("registry/" ^ e.P.name) e instance)
    P.all

let test_wrong_policy_thaw_rejected () =
  let e = Option.get (P.find "greedy-spt") in
  let other = Option.get (P.find "greedy-fifo") in
  let s = e.P.open_stream ~machines:(Machine.fleet 2) () in
  let payload = s.P.ss_freeze () in
  match other.P.restore_stream payload with
  | _ -> Alcotest.fail "thaw under the wrong policy succeeded"
  | exception Invalid_argument _ -> ()

(* --- telemetry and trace across a checkpoint ----------------------------- *)

let counter_names = [ "dispatch"; "start"; "complete"; "reject"; "reject_midrun"; "restart" ]

let counters obs =
  let reg = Sched_obs.Obs.registry obs in
  List.map
    (fun k ->
      match Sched_obs.Registry.find reg ~name:("sched_" ^ k ^ "_total") ~labels:[] with
      | Some { Sched_obs.Registry.instrument = Sched_obs.Registry.Counter c; _ } ->
          (k, Sched_obs.Metric.Counter.value c)
      | _ -> Alcotest.failf "missing counter sched_%s_total" k)
    counter_names

let freeze_thaw (e : P.entry) (s : P.stream_session) ?obs () =
  match Snapshot.unwrap (Snapshot.wrap ~policy:e.P.name ~payload:(s.P.ss_freeze ())) with
  | Ok (_, payload) -> e.P.restore_stream ?obs payload
  | Error err -> Alcotest.failf "unwrap: %s" (Snapshot.error_to_string err)

(* A session restored with [?obs] reports the whole run, not just the
   events after the restore: the counters are read out of the restored
   state at close, and the per-machine gauges drain to zero. *)
let test_telemetry_after_restore () =
  let e = Option.get (P.find "flow-reject") in
  let instance = Test_util.random_instance ~seed:17 ~n:400 ~m:4 () in
  let jobs = Instance.jobs_by_release instance in
  let machines = instance.Instance.machines in
  let whole = Sched_obs.Obs.create () in
  let s = e.P.open_stream ~obs:whole ~machines () in
  Array.iter s.P.ss_feed jobs;
  ignore (s.P.ss_close ());
  let s = e.P.open_stream ~machines () in
  for k = 0 to 199 do
    s.P.ss_feed jobs.(k)
  done;
  s.P.ss_drain_until jobs.(199).Job.release;
  let obs = Sched_obs.Obs.create () in
  let r = freeze_thaw e s ~obs () in
  for k = 200 to Array.length jobs - 1 do
    r.P.ss_feed jobs.(k)
  done;
  ignore (r.P.ss_close ());
  Alcotest.(check (list (pair string (float 0.)))) "counters = uninterrupted run's"
    (counters whole) (counters obs);
  Alcotest.(check (float 0.)) "dispatch = n" 400. (List.assoc "dispatch" (counters obs));
  List.iter
    (fun (en : Sched_obs.Registry.entry) ->
      match en.Sched_obs.Registry.instrument with
      | Sched_obs.Registry.Gauge g ->
          Alcotest.(check (float 0.)) (en.Sched_obs.Registry.name ^ " drains") 0.
            (Sched_obs.Metric.Gauge.value g)
      | _ -> ())
    (Sched_obs.Registry.entries (Sched_obs.Obs.registry obs))

(* The serve loop's shape: a retiring stream with a trace, drained every
   64 arrivals, each batch's decisions emitted with [since] and then
   released.  The trace then retains one batch's rows, so its ring is as
   large at n = 8000 as at n = 2000. *)
let serve_shaped ~n =
  let e = Option.get (P.find "flow-reject") in
  let instance = Test_util.random_instance ~seed:3 ~n ~m:4 () in
  let trace = Trace.create () in
  let s = e.P.open_stream ~trace ~retire:true ~machines:instance.Instance.machines () in
  let emitted = ref 0 in
  let emit () =
    emitted := !emitted + List.length (Trace.since trace !emitted);
    Trace.release trace !emitted
  in
  Array.iteri
    (fun k (j : Job.t) ->
      s.P.ss_feed j;
      if (k + 1) mod 64 = 0 then begin
        s.P.ss_drain_until j.Job.release;
        emit ()
      end)
    (Instance.jobs_by_release instance);
  ignore (s.P.ss_close ());
  emit ();
  Alcotest.(check int) "every decision emitted" (Trace.length trace) !emitted;
  (Sched_obs.Recorder.capacity (Trace.recorder trace), Trace.length trace)

let test_serve_trace_bounded () =
  let cap_small, _ = serve_shaped ~n:2000 in
  let cap_large, rows = serve_shaped ~n:8000 in
  Alcotest.(check int) "ring capacity independent of n" cap_small cap_large;
  Alcotest.(check bool) "far fewer slots than rows" true (4 * cap_large < rows)

(* A checkpoint carries only the rows its reader has not released: after
   emitting and releasing, the restored trace holds none of them (and
   keeps counting from the same sequence number); rows recorded since
   the last release ride along. *)
let test_snapshot_carries_unread_rows () =
  let e = Option.get (P.find "flow-reject") in
  let instance = Test_util.random_instance ~seed:8 ~n:120 ~m:3 () in
  let jobs = Instance.jobs_by_release instance in
  let trace = Trace.create () in
  let s = e.P.open_stream ~trace ~machines:instance.Instance.machines () in
  for k = 0 to 59 do
    s.P.ss_feed jobs.(k)
  done;
  s.P.ss_drain_until jobs.(59).Job.release;
  let emitted = Trace.length trace in
  Trace.release trace emitted;
  let restored_trace r = Option.get (r.P.ss_trace ()) in
  let r = freeze_thaw e s () in
  let t = restored_trace r in
  Alcotest.(check int) "sequence numbers continue" emitted (Trace.length t);
  Alcotest.(check int) "no emitted row rides the snapshot" 0
    (Sched_obs.Recorder.length (Trace.recorder t));
  for k = 60 to 89 do
    s.P.ss_feed jobs.(k)
  done;
  s.P.ss_drain_until jobs.(89).Job.release;
  let unread = Trace.since trace emitted in
  let t = restored_trace (freeze_thaw e s ()) in
  Alcotest.(check int) "unread rows ride the snapshot" (List.length unread)
    (Sched_obs.Recorder.length (Trace.recorder t));
  Alcotest.(check (list string)) "and decode identically"
    (List.map Trace_export.entry_line unread)
    (List.map Trace_export.entry_line (Trace.since t emitted))

(* --- a checkpoint written by an earlier build --------------------------- *)

(* The CI serve smoke's four arrivals on two machines. *)
let smoke_jobs =
  [
    Job.create ~id:0 ~release:0. ~sizes:[| 1.; 2. |] ();
    Job.create ~id:1 ~release:0.5 ~weight:2. ~sizes:[| 2.; 1. |] ();
    Job.create ~id:2 ~release:1. ~sizes:[| infinity; 1.5 |] ();
    Job.create ~id:3 ~release:2. ~sizes:[| 1.; 1. |] ();
  ]

(* Serve's loop: feed one job, drain to its release, emit the unreleased
   decisions as trace/1 lines and release them; [~close] ends the stream. *)
let serve_lines (s : P.stream_session) jobs ~close =
  let trace = Option.get (s.P.ss_trace ()) in
  let emit () =
    let lines = List.map Trace_export.entry_line (Trace.events trace) in
    Trace.release trace (Trace.length trace);
    lines
  in
  let fed =
    List.concat_map
      (fun (j : Job.t) ->
        s.P.ss_feed j;
        s.P.ss_drain_until j.Job.release;
        emit ())
      jobs
  in
  if close then begin
    ignore (s.P.ss_close ());
    fed @ emit ()
  end
  else fed

(* A tripwire for the snapshot layout.  [snapshots/serve-smoke-v9.snap] is
   serve's checkpoint after the smoke stream's first two arrivals, written
   by an earlier build.  It must unwrap under the current [Snapshot.version]
   and thaw, and its continuation spliced after the first half's decisions
   must equal the uninterrupted run's.  A change to the frozen session's
   layout breaks the byte-for-byte test below: bump [Snapshot.version] and
   regenerate the file from the repository root with

     printf '%s\n' '{"job": 0, "release": 0.0, "sizes": [1.0, 2.0]}' \
       '{"job": 1, "release": 0.5, "sizes": [2.0, 1.0], "weight": 2.0}' \
       | dune exec bin/rejsched.exe -- serve -m 2 \
           --checkpoint test/snapshots/serve-smoke-vN.snap

   (N the new version), then point both tests at it. *)
let snapshot_file name = Filename.concat (Test_util.data_dir "snapshots") name
let checked_in_snapshot = snapshot_file "serve-smoke-v9.snap"

let checked_in_payload () =
  match Snapshot.unwrap (Snapshot.read_file checked_in_snapshot) with
  | Ok pp -> pp
  | Error err -> Alcotest.failf "checked-in snapshot: %s" (Snapshot.error_to_string err)

let open_smoke_serve () =
  let e = Option.get (P.find "flow-reject") in
  (e, e.P.open_stream ~trace:(Trace.create ()) ~retire:true ~machines:(Machine.fleet 2) ())

let test_checked_in_snapshot_restores () =
  let e, full_session = open_smoke_serve () in
  let full = serve_lines full_session smoke_jobs ~close:true in
  let first =
    serve_lines (snd (open_smoke_serve ())) (List.filteri (fun k _ -> k < 2) smoke_jobs)
      ~close:false
  in
  let policy, payload = checked_in_payload () in
  Alcotest.(check string) "policy" e.P.name policy;
  let r = e.P.restore_stream payload in
  Alcotest.(check int) "fed count" 2 (r.P.ss_fed ());
  let rest = serve_lines r (List.filteri (fun k _ -> k >= 2) smoke_jobs) ~close:true in
  Alcotest.(check (list string)) "spliced decisions = uninterrupted run's" full (first @ rest)

(* A payload of an older layout can still thaw into the current one and
   replay the same decisions (a new field the smoke run never reads
   goes unnoticed), so restoring is no proof that the layout is
   unchanged.  This test is: the payload this build freezes after the
   same two arrivals must equal the checked-in one byte for byte.  The
   one value that differs between builds is the drains' [Gc.minor_words]
   total (a release build allocates differently), which the comparison
   zeroes on both sides: it is the 10th field ([z_minor]) of
   [Driver]'s frozen record.  Unmarshaling as [Obj.t] is safe on any
   intact payload, whatever its layout. *)
let minor_words_field = 9

let normalize_minor_words payload =
  let z : Obj.t = Marshal.from_string payload 0 in
  if
    Obj.is_int z
    || Obj.size z <= minor_words_field
    || Obj.tag (Obj.field z minor_words_field) <> Obj.double_tag
  then Alcotest.fail "payload's minor-words field is not where this test expects it";
  Obj.set_field z minor_words_field (Obj.repr 0.);
  Marshal.to_string z []

let test_checked_in_snapshot_bytes () =
  let _, s = open_smoke_serve () in
  ignore (serve_lines s (List.filteri (fun k _ -> k < 2) smoke_jobs) ~close:false);
  let _, payload = checked_in_payload () in
  Alcotest.(check bool)
    "this build's freeze = the checked-in payload (bump Snapshot.version if not)" true
    (String.equal (normalize_minor_words (s.P.ss_freeze ())) (normalize_minor_words payload))

(* The previous formats' tripwires stay checked in, and each payload
   must be refused by the container before it reaches [Marshal], not
   thawed into the current layout: version 2 laid the job columns out by
   external id, version 3 kept a per-(machine, slot) size matrix and
   a position table per pending heap, version 4 had no column of
   pending-head sizes, version 5 kept a per-slot column of minimum
   sizes, a job record without its size summaries and a position
   column for every pending order, dormant or not, version 6 kept
   rejection counters in the weighted and flow-energy policy states,
   version 7 carried the driver's own audit flag in the frozen session,
   and version 8 kept a machines-only stand-in instance in the flat state,
   a batch-instance slot in the frozen session and an instance in the
   policy states. *)
let old_snapshot_fails_closed v () =
  match
    Snapshot.unwrap (Snapshot.read_file (snapshot_file (Printf.sprintf "serve-smoke-v%d.snap" v)))
  with
  | Error (Snapshot.Bad_version v') when v' = v -> ()
  | Error err -> Alcotest.failf "v%d snapshot: wrong error %s" v (Snapshot.error_to_string err)
  | Ok _ -> Alcotest.failf "v%d snapshot unwrapped under the current version" v

let suite =
  [
    test_roundtrip;
    test_bitflip;
    Alcotest.test_case "truncation / garbage / alien files fail closed" `Quick
      test_truncation_fails_closed;
    Alcotest.test_case "suspend at every boundary, corpus cases" `Slow
      test_suspend_every_boundary_corpus;
    Alcotest.test_case "suspend at every boundary, stateful policies" `Slow
      test_suspend_every_boundary_stateful;
    Alcotest.test_case "thaw under the wrong policy rejected" `Quick
      test_wrong_policy_thaw_rejected;
    Alcotest.test_case "telemetry after restore covers the whole run" `Quick
      test_telemetry_after_restore;
    Alcotest.test_case "serve-shaped trace stays bounded" `Quick test_serve_trace_bounded;
    Alcotest.test_case "snapshot carries only unread trace rows" `Quick
      test_snapshot_carries_unread_rows;
    Alcotest.test_case "checked-in snapshot restores" `Quick test_checked_in_snapshot_restores;
    Alcotest.test_case "checked-in snapshot matches this build's freeze" `Quick
      test_checked_in_snapshot_bytes;
    Alcotest.test_case "v2 snapshot fails closed" `Quick (old_snapshot_fails_closed 2);
    Alcotest.test_case "v3 snapshot fails closed" `Quick (old_snapshot_fails_closed 3);
    Alcotest.test_case "v4 snapshot fails closed" `Quick (old_snapshot_fails_closed 4);
    Alcotest.test_case "v5 snapshot fails closed" `Quick (old_snapshot_fails_closed 5);
    Alcotest.test_case "v6 snapshot fails closed" `Quick (old_snapshot_fails_closed 6);
    Alcotest.test_case "suspend at every boundary, every registry policy" `Slow
      test_suspend_every_boundary_registry;
    Alcotest.test_case "v7 snapshot fails closed" `Quick (old_snapshot_fails_closed 7);
    Alcotest.test_case "v8 snapshot fails closed" `Quick (old_snapshot_fails_closed 8);
  ]
