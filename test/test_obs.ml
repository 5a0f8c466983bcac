(* Tests for the telemetry layer (lib/obs/) and its driver wiring.

   The exporter goldens are exact byte-for-byte strings: the registry
   iterates deterministically and floats print in shortest round-tripping
   form, so any drift in the exposition formats is a real change.  All
   histogram inputs are dyadic so sums are exact.

   The differential tests are the layer's core contract: schedules and
   traces are byte-identical with telemetry off, with counters only, and
   with span timing on. *)

open Sched_model
module O = Sched_obs
module Metric = O.Metric
module Registry = O.Registry
module Sink = O.Sink
module Clock = O.Clock
module J = O.Ndjson

(* --- instruments ------------------------------------------------------- *)

let test_counter () =
  let c = Metric.Counter.make () in
  Alcotest.(check (float 0.)) "zero" 0. (Metric.Counter.value c);
  Metric.Counter.inc c;
  Metric.Counter.add c 2.5;
  Alcotest.(check (float 0.)) "sum" 3.5 (Metric.Counter.value c);
  let monotone f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "expected Invalid_argument"
  in
  monotone (fun () -> Metric.Counter.add c (-1.));
  monotone (fun () -> Metric.Counter.add c Float.nan);
  Alcotest.(check (float 0.)) "unchanged after rejects" 3.5 (Metric.Counter.value c)

let test_gauge () =
  let g = Metric.Gauge.make () in
  Metric.Gauge.set g 4.;
  Metric.Gauge.inc g;
  Metric.Gauge.dec g;
  Metric.Gauge.add g (-1.5);
  Alcotest.(check (float 0.)) "value" 2.5 (Metric.Gauge.value g)

let test_histogram () =
  let h = Metric.Histogram.make ~buckets:[ 0.125; 1.; 8. ] in
  List.iter (Metric.Histogram.observe h) [ 0.125; 0.5; 2.; 100.; Float.nan ];
  Alcotest.(check int) "count" 5 (Metric.Histogram.count h);
  (* NaN contributes to the overflow bucket but poisons no finite sum:
     it is excluded from [sum]. *)
  Alcotest.(check (float 0.)) "sum" 102.625 (Metric.Histogram.sum h);
  Alcotest.(check (list (pair (float 0.) int)))
    "cumulative"
    [ (0.125, 1); (1., 2); (8., 3); (Float.infinity, 5) ]
    (Metric.Histogram.cumulative h)

let test_histogram_validation () =
  let invalid buckets =
    match Metric.Histogram.make ~buckets with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid [];
  invalid [ 1.; 1. ];
  invalid [ 2.; 1. ];
  invalid [ Float.nan ]

(* --- registry ---------------------------------------------------------- *)

let test_registry_get_or_create () =
  let reg = Registry.create () in
  let a = Registry.counter reg "hits_total" in
  let b = Registry.counter reg "hits_total" in
  Metric.Counter.inc a;
  Metric.Counter.inc b;
  (* Same cell: both increments visible through either handle. *)
  Alcotest.(check (float 0.)) "shared" 2. (Metric.Counter.value a);
  Alcotest.(check int) "one entry" 1 (Registry.size reg)

let test_registry_label_normalization () =
  let reg = Registry.create () in
  let a = Registry.gauge reg ~labels:[ ("b", "2"); ("a", "1") ] "depth" in
  let b = Registry.gauge reg ~labels:[ ("a", "1"); ("b", "2") ] "depth" in
  Metric.Gauge.inc a;
  Metric.Gauge.inc b;
  Alcotest.(check (float 0.)) "same cell" 2. (Metric.Gauge.value a);
  match Registry.find reg ~name:"depth" ~labels:[ ("b", "2"); ("a", "1") ] with
  | None -> Alcotest.fail "find failed"
  | Some e ->
      Alcotest.(check (list (pair string string)))
        "sorted" [ ("a", "1"); ("b", "2") ] e.Registry.labels

let test_registry_rejects_bad_input () =
  let reg = Registry.create () in
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Registry.counter reg "9starts_with_digit");
  invalid (fun () -> Registry.counter reg "has-dash");
  invalid (fun () -> Registry.counter reg ~labels:[ ("k", "1"); ("k", "2") ] "dup_keys");
  (* One name is one instrument kind. *)
  let _ = Registry.counter reg "family" in
  invalid (fun () -> Registry.gauge reg "family")

let test_registry_deterministic_order () =
  let build names =
    let reg = Registry.create () in
    List.iter (fun n -> ignore (Registry.counter reg n)) names;
    List.map (fun (e : Registry.entry) -> e.Registry.name) (Registry.entries reg)
  in
  let sorted = build [ "zeta"; "alpha"; "mid" ] in
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] sorted;
  Alcotest.(check (list string)) "order independent" sorted (build [ "mid"; "zeta"; "alpha" ])

(* --- clock ------------------------------------------------------------- *)

let test_clocks () =
  let f = Clock.frozen 5. in
  Alcotest.(check (float 0.)) "frozen" 5. (f ());
  Alcotest.(check (float 0.)) "frozen again" 5. (f ());
  let t = Clock.ticker ~start:10. ~step:0.5 () in
  let t1 = t () in
  let t2 = t () in
  let t3 = t () in
  Alcotest.(check (list (float 0.))) "ticker" [ 10.; 10.5; 11. ] [ t1; t2; t3 ];
  let counted, calls = Clock.calls (Clock.ticker ()) in
  ignore (counted ());
  ignore (counted ());
  Alcotest.(check int) "calls" 2 (calls ());
  let m = Clock.monotonic () in
  let a = m () in
  let b = m () in
  Alcotest.(check bool) "monotonic" true (b >= a)

(* --- sinks ------------------------------------------------------------- *)

let test_null_sink_records_nothing () =
  (* The null sink must neither touch a registry nor read any clock; it
     returns the thunk's value and passes exceptions through. *)
  Alcotest.(check int) "value" 7 (Sink.time Sink.null "phase" (fun () -> 7));
  Alcotest.check_raises "exn" Exit (fun () -> Sink.time Sink.null "phase" (fun () -> raise Exit));
  let obs = O.Obs.create () in
  Alcotest.(check int) "registry untouched" 0 (Registry.size (O.Obs.registry obs))

let test_spans_sink_aggregates () =
  let reg = Registry.create () in
  let clock, calls = Clock.calls (Clock.ticker ~start:0. ~step:0.25 ()) in
  let sink = Sink.spans ~clock reg in
  Alcotest.(check int) "result" 3 (Sink.time sink "select" (fun () -> 3));
  ignore (Sink.time sink "select" (fun () -> 0));
  ignore (Sink.time sink "heap" (fun () -> 0));
  (* Two clock reads per span. *)
  Alcotest.(check int) "clock reads" 6 (calls ());
  match Registry.find reg ~name:"obs_phase_seconds" ~labels:[ ("phase", "select") ] with
  | Some { Registry.instrument = Registry.Histogram h; _ } ->
      Alcotest.(check int) "spans" 2 (Metric.Histogram.count h);
      (* Ticker step 0.25: every span lasts exactly one step. *)
      Alcotest.(check (float 0.)) "durations" 0.5 (Metric.Histogram.sum h)
  | _ -> Alcotest.fail "expected select histogram"

let test_spans_sink_records_on_exception () =
  let reg = Registry.create () in
  let sink = Sink.spans ~clock:(Clock.ticker ()) reg in
  Alcotest.check_raises "exn" Exit (fun () -> Sink.time sink "boom" (fun () -> raise Exit));
  match Registry.find reg ~name:"obs_phase_seconds" ~labels:[ ("phase", "boom") ] with
  | Some { Registry.instrument = Registry.Histogram h; _ } ->
      Alcotest.(check int) "recorded" 1 (Metric.Histogram.count h)
  | _ -> Alcotest.fail "expected boom histogram"

(* --- exporter goldens -------------------------------------------------- *)

let golden_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"Total things" "things_total" in
  Metric.Counter.add c 3.;
  let g = Registry.gauge reg ~labels:[ ("machine", "1") ] "queue_depth" in
  Metric.Gauge.set g 2.5;
  let h = Registry.histogram reg ~help:"Latency" ~buckets:[ 0.125; 1. ] "latency_seconds" in
  List.iter (Metric.Histogram.observe h) [ 0.0625; 0.5; 5. ];
  reg

let test_prometheus_golden () =
  let expected =
    "# HELP latency_seconds Latency\n\
     # TYPE latency_seconds histogram\n\
     latency_seconds_bucket{le=\"0.125\"} 1\n\
     latency_seconds_bucket{le=\"1\"} 2\n\
     latency_seconds_bucket{le=\"+Inf\"} 3\n\
     latency_seconds_sum 5.5625\n\
     latency_seconds_count 3\n\
     # TYPE queue_depth gauge\n\
     queue_depth{machine=\"1\"} 2.5\n\
     # HELP things_total Total things\n\
     # TYPE things_total counter\n\
     things_total 3\n"
  in
  Alcotest.(check string) "prometheus" expected (O.Export.prometheus (golden_registry ()))

let test_json_golden () =
  let expected =
    "{\n\
    \  \"schema\": \"rejsched.metrics/1\",\n\
    \  \"metrics\": [\n\
    \    { \"name\": \"latency_seconds\", \"type\": \"histogram\", \"labels\": {}, \"count\": 3, \
     \"sum\": 5.5625, \"buckets\": \
     [{\"le\":\"0.125\",\"count\":1},{\"le\":\"1\",\"count\":2},{\"le\":\"+Inf\",\"count\":3}] },\n\
    \    { \"name\": \"queue_depth\", \"type\": \"gauge\", \"labels\": {\"machine\":\"1\"}, \
     \"value\": 2.5 },\n\
    \    { \"name\": \"things_total\", \"type\": \"counter\", \"labels\": {}, \"value\": 3 }\n\
    \  ]\n\
     }\n"
  in
  Alcotest.(check string) "json" expected (O.Export.json (golden_registry ()))

let test_ndjson_primitives () =
  Alcotest.(check string) "escape" "a\\\"b\\\\c\\n\\u0001" (J.escape "a\"b\\c\n\001");
  Alcotest.(check string) "float" "1.5" (J.float_repr 1.5);
  Alcotest.(check string) "integral" "3" (J.float_repr 3.);
  Alcotest.(check string) "nan" "\"NaN\"" (J.float_repr Float.nan);
  Alcotest.(check string) "inf" "\"Infinity\"" (J.float_repr Float.infinity);
  Alcotest.(check string) "neg-inf" "\"-Infinity\"" (J.float_repr Float.neg_infinity);
  Alcotest.(check string) "tenth" "0.1" (J.float_repr 0.1);
  Alcotest.(check string) "line"
    "{\"schema\":\"s/1\",\"a\":1,\"b\":\"x\\\"y\",\"c\":null,\"d\":true}"
    (J.line ~schema:"s/1"
       [ ("a", J.Int 1); ("b", J.String "x\"y"); ("c", J.Null); ("d", J.Bool true) ])

(* A non-finite gauge (e.g. a max-stretch that divided by zero) must not
   corrupt the JSON snapshot: the value renders as a quoted sentinel
   token, keeping the document parseable and the three non-finite values
   distinguishable. *)
let test_json_non_finite_gauge () =
  let reg = Registry.create () in
  Metric.Gauge.set (Registry.gauge reg "stretch_max") Float.infinity;
  Metric.Gauge.set (Registry.gauge reg "undefined_ratio") Float.nan;
  let json = O.Export.json reg in
  Alcotest.(check bool) "infinity token" true
    (Test_util.contains json "\"value\": \"Infinity\"");
  Alcotest.(check bool) "nan token" true (Test_util.contains json "\"value\": \"NaN\"");
  Alcotest.(check bool) "no bare nan" false (Test_util.contains json ": nan");
  Alcotest.(check bool) "no bare inf" false (Test_util.contains json ": inf")

let test_trace_ndjson_golden () =
  let t = Sched_sim.Trace.create () in
  Sched_sim.Trace.record t 0.5 (Sched_sim.Trace.Dispatch { job = 0; machine = 1 });
  Sched_sim.Trace.record t 0.5 (Sched_sim.Trace.Start { job = 0; machine = 1; speed = 1. });
  Sched_sim.Trace.record t 2.25
    (Sched_sim.Trace.Reject { job = 0; machine = 1; was_running = true; remaining = 0.75 });
  Sched_sim.Trace.record t 3. (Sched_sim.Trace.Restart { job = 2; machine = 0; wasted = 1.5 });
  Sched_sim.Trace.record t 4. (Sched_sim.Trace.Complete { job = 2; machine = 0 });
  let expected =
    "{\"schema\":\"rejsched.trace/1\",\"time\":0.5,\"event\":\"dispatch\",\"job\":0,\"machine\":1}\n\
     {\"schema\":\"rejsched.trace/1\",\"time\":0.5,\"event\":\"start\",\"job\":0,\"machine\":1,\"speed\":1}\n\
     {\"schema\":\"rejsched.trace/1\",\"time\":2.25,\"event\":\"reject\",\"job\":0,\"machine\":1,\"was_running\":true,\"remaining\":0.75}\n\
     {\"schema\":\"rejsched.trace/1\",\"time\":3,\"event\":\"restart\",\"job\":2,\"machine\":0,\"wasted\":1.5}\n\
     {\"schema\":\"rejsched.trace/1\",\"time\":4,\"event\":\"complete\",\"job\":2,\"machine\":0}\n"
  in
  Alcotest.(check string) "ndjson" expected (Sched_sim.Trace_export.to_ndjson t)

(* --- trace profiles ---------------------------------------------------- *)

let test_pending_profile () =
  let module T = Sched_sim.Trace in
  let t = T.create () in
  T.record t 1. (T.Dispatch { job = 0; machine = 0 });
  T.record t 1. (T.Start { job = 0; machine = 0; speed = 1. });
  T.record t 2. (T.Dispatch { job = 1; machine = 0 });
  T.record t 3. (T.Reject { job = 1; machine = 0; was_running = false; remaining = 4. });
  T.record t 4. (T.Restart { job = 0; machine = 0; wasted = 3. });
  T.record t 4. (T.Start { job = 0; machine = 0; speed = 1. });
  T.record t 5. (T.Reject { job = 2; machine = 1; was_running = true; remaining = 1. });
  T.record t 6. (T.Complete { job = 0; machine = 0 });
  let profile = Alcotest.(list (pair (float 0.) int)) in
  (match T.pending_profile t ~machines:2 with
  | [ (0, p0); (1, p1) ] ->
      Alcotest.check profile "pending m0"
        [ (1., 1); (1., 0); (2., 1); (3., 0); (4., 1); (4., 0) ]
        p0;
      (* A mid-run reject never touches the pending series. *)
      Alcotest.check profile "pending m1" [] p1
  | _ -> Alcotest.fail "expected two machines");
  (* The original dispatched-not-finished series is untouched by the new
     one: Start/Restart still invisible, mid-run reject still a -1. *)
  match T.queue_profile t ~machines:2 with
  | [ (0, q0); (1, q1) ] ->
      Alcotest.check profile "queue m0" [ (1., 1); (2., 2); (3., 1); (6., 0) ] q0;
      Alcotest.check profile "queue m1" [ (5., -1) ] q1
  | _ -> Alcotest.fail "expected two machines"

let test_profiles_from_live_run () =
  (* On a completed restart-heavy run, both series must return to zero on
     every machine. *)
  let inst = Test_util.random_instance ~seed:77 ~n:30 ~m:3 () in
  let module RS = Sched_baselines.Restart_spt in
  let trace = Sched_sim.Trace.create () in
  let _ = Sched_sim.Driver.run ~trace (RS.policy (RS.config ~max_restarts:1 ())) inst in
  let final = function [] -> 0 | l -> snd (List.nth l (List.length l - 1)) in
  List.iter
    (fun (i, series) -> Alcotest.(check int) (Printf.sprintf "pending m%d drains" i) 0 (final series))
    (Sched_sim.Trace.pending_profile trace ~machines:3);
  List.iter
    (fun (i, series) -> Alcotest.(check int) (Printf.sprintf "queue m%d drains" i) 0 (final series))
    (Sched_sim.Trace.queue_profile trace ~machines:3)

(* --- driver wiring: differential and reconciliation -------------------- *)

let instances =
  List.init 12 (fun k ->
      Test_util.random_instance ~weighted:(k mod 2 = 1) ~restricted:(k mod 3 = 0)
        ~seed:(4000 + k) ~n:(10 + (k * 3)) ~m:(1 + (k mod 3)) ())

let run_spt obs inst =
  let trace = Sched_sim.Trace.create () in
  let s = Test_util.schedule_of ~trace ?obs Sched_baselines.Greedy_dispatch.spt inst in
  (Serialize.schedule_to_string s, Sched_sim.Trace_export.to_ndjson trace)

let run_fr obs inst =
  let module FR = Rejection.Flow_reject in
  let trace = Sched_sim.Trace.create () in
  let s, _ = FR.run ~trace ?obs (FR.config ~eps:0.25 ()) inst in
  (Serialize.schedule_to_string s, Sched_sim.Trace_export.to_ndjson trace)

let run_restart obs inst =
  let module RS = Sched_baselines.Restart_spt in
  let trace = Sched_sim.Trace.create () in
  let s, _, _ = Sched_sim.Driver.run ~trace ?obs (RS.policy (RS.config ~max_restarts:1 ())) inst in
  (Serialize.schedule_to_string s, Sched_sim.Trace_export.to_ndjson trace)

let test_obs_does_not_change_schedules () =
  List.iter
    (fun (name, run) ->
      List.iter
        (fun inst ->
          let bare_s, bare_t = run None inst in
          let counted_s, counted_t = run (Some (O.Obs.create ())) inst in
          let timed_s, timed_t =
            run (Some (O.Obs.timed ~clock:(Clock.ticker ()) ())) inst
          in
          let check what a b =
            if a <> b then
              Alcotest.failf "%s: %s not byte-identical on %s" name what inst.Instance.name
          in
          check "schedule (counters)" bare_s counted_s;
          check "schedule (spans)" bare_s timed_s;
          check "trace (counters)" bare_t counted_t;
          check "trace (spans)" bare_t timed_t)
        instances)
    [ ("greedy-spt", run_spt); ("flow-reject", run_fr); ("restart-spt", run_restart) ]

let counter_value reg name =
  match Registry.find reg ~name ~labels:[] with
  | Some { Registry.instrument = Registry.Counter c; _ } ->
      int_of_float (Metric.Counter.value c)
  | _ -> Alcotest.failf "missing counter %s" name

let gauge_value reg name machine =
  match Registry.find reg ~name ~labels:[ ("machine", string_of_int machine) ] with
  | Some { Registry.instrument = Registry.Gauge g; _ } -> Metric.Gauge.value g
  | _ -> Alcotest.failf "missing gauge %s{machine=%d}" name machine

let test_counters_reconcile () =
  List.iter
    (fun inst ->
      let module FR = Rejection.Flow_reject in
      let obs = O.Obs.create () in
      let s, _ = FR.run ~obs (FR.config ~eps:0.25 ()) inst in
      let reg = O.Obs.registry obs in
      let r = Metrics.rejection s in
      let n = Instance.n inst in
      let dispatch = counter_value reg "sched_dispatch_total" in
      let start = counter_value reg "sched_start_total" in
      let complete = counter_value reg "sched_complete_total" in
      let reject = counter_value reg "sched_reject_total" in
      let midrun = counter_value reg "sched_reject_midrun_total" in
      let restart = counter_value reg "sched_restart_total" in
      Alcotest.(check int) "dispatch = n" n dispatch;
      Alcotest.(check int) "complete + reject = n" n (complete + reject);
      Alcotest.(check int) "start = complete + midrun + restart" start
        (complete + midrun + restart);
      (* The counters agree exactly with the post-hoc metrics pass. *)
      Alcotest.(check int) "reject = Metrics.rejection.count" r.Metrics.count reject;
      Alcotest.(check int) "midrun = Metrics.rejection.mid_run" r.Metrics.mid_run midrun;
      for i = 0 to Instance.m inst - 1 do
        Alcotest.(check (float 0.)) "pending gauge drains" 0. (gauge_value reg "sched_pending_jobs" i);
        Alcotest.(check (float 0.)) "inflight gauge drains" 0.
          (gauge_value reg "sched_inflight_jobs" i)
      done)
    instances

let test_restart_counter () =
  let inst = Test_util.random_instance ~seed:91 ~n:40 ~m:2 () in
  let module RS = Sched_baselines.Restart_spt in
  let obs = O.Obs.create () in
  let trace = Sched_sim.Trace.create () in
  let _ = Sched_sim.Driver.run ~trace ~obs (RS.policy (RS.config ~max_restarts:2 ())) inst in
  let reg = O.Obs.registry obs in
  let restarts_in_trace =
    List.length
      (List.filter
         (fun (e : Sched_sim.Trace.entry) ->
           match e.Sched_sim.Trace.event with Sched_sim.Trace.Restart _ -> true | _ -> false)
         (Sched_sim.Trace.events trace))
  in
  Alcotest.(check int) "restart counter mirrors trace" restarts_in_trace
    (counter_value reg "sched_restart_total");
  Alcotest.(check int) "start = complete + midrun + restart"
    (counter_value reg "sched_start_total")
    (counter_value reg "sched_complete_total"
    + counter_value reg "sched_reject_midrun_total"
    + counter_value reg "sched_restart_total")

let test_timed_obs_records_phases () =
  let inst = Test_util.random_instance ~seed:13 ~n:25 ~m:2 () in
  let obs = O.Obs.timed ~clock:(Clock.ticker ()) () in
  let _ = Sched_sim.Driver.run ~obs Sched_baselines.Greedy_dispatch.spt inst in
  let reg = O.Obs.registry obs in
  List.iter
    (fun phase ->
      match Registry.find reg ~name:"obs_phase_seconds" ~labels:[ ("phase", phase) ] with
      | Some { Registry.instrument = Registry.Histogram h; _ } ->
          Alcotest.(check bool) (phase ^ " observed") true (Metric.Histogram.count h > 0)
      | _ -> Alcotest.failf "missing phase histogram %s" phase)
    [ "on_arrival"; "select"; "segment"; "heap" ]

(* --- registry merge (parallel shard fold-back) ------------------------- *)

let test_registry_merge () =
  let src = Registry.create () and dst = Registry.create () in
  Metric.Counter.add (Registry.counter dst "jobs_total") 2.;
  Metric.Counter.add (Registry.counter src "jobs_total") 3.;
  Metric.Gauge.set (Registry.gauge dst "queue_depth") 7.;
  Metric.Gauge.set (Registry.gauge src "queue_depth") 4.;
  let hd = Registry.histogram dst ~buckets:[ 1.; 2. ] "latency" in
  let hs = Registry.histogram src ~buckets:[ 1.; 2. ] "latency" in
  List.iter (Metric.Histogram.observe hd) [ 0.5; 1.5 ];
  List.iter (Metric.Histogram.observe hs) [ 1.5; 4. ];
  Metric.Counter.inc (Registry.counter src ~labels:[ ("experiment", "e9") ] "only_in_src");
  Registry.merge ~into:dst src;
  Alcotest.(check (float 0.)) "counters add" 5.
    (Metric.Counter.value (Registry.counter dst "jobs_total"));
  Alcotest.(check (float 0.)) "gauge: last-merged wins" 4.
    (Metric.Gauge.value (Registry.gauge dst "queue_depth"));
  Alcotest.(check int) "histogram counts add" 4 (Metric.Histogram.count hd);
  Alcotest.(check (float 0.)) "histogram sums add" 7.5 (Metric.Histogram.sum hd);
  Alcotest.(check (list (pair (float 0.) int)))
    "bucket-wise addition"
    [ (1., 1); (2., 3); (Float.infinity, 4) ]
    (Metric.Histogram.cumulative hd);
  Alcotest.(check (float 0.)) "source-only entries created" 1.
    (Metric.Counter.value (Registry.counter dst ~labels:[ ("experiment", "e9") ] "only_in_src"));
  (* The source shard is read-only to merge. *)
  Alcotest.(check (float 0.)) "source untouched" 3.
    (Metric.Counter.value (Registry.counter src "jobs_total"))

let test_registry_merge_mismatch () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  let a = Registry.create () and b = Registry.create () in
  ignore (Registry.histogram a ~buckets:[ 1.; 2. ] "h");
  ignore (Registry.histogram b ~buckets:[ 1.; 4. ] "h");
  expect_invalid "bucket bounds differ" (fun () -> Registry.merge ~into:a b);
  let c = Registry.create () and d = Registry.create () in
  ignore (Registry.counter c "x");
  Metric.Gauge.set (Registry.gauge d "x") 1.;
  expect_invalid "instrument kinds differ" (fun () -> Registry.merge ~into:c d)

let test_merge_export_identity () =
  (* Recording everything into one registry and recording into per-task
     shards merged back in task order must export byte-identically —
     the property the pooled experiment suite relies on. *)
  let record reg k =
    Metric.Counter.add (Registry.counter reg ~help:"jobs" "jobs_total") (float_of_int k);
    Metric.Gauge.set (Registry.gauge reg ~labels:[ ("machine", "0") ] "depth") (float_of_int k);
    Metric.Histogram.observe
      (Registry.histogram reg ~buckets:[ 1.; 8. ] "size")
      (0.25 *. float_of_int k)
  in
  let tasks = [ 1; 2; 3; 4 ] in
  let direct = Registry.create () in
  List.iter (record direct) tasks;
  let merged = Registry.create () in
  List.iter
    (fun k ->
      let shard = Registry.create () in
      record shard k;
      Registry.merge ~into:merged shard)
    tasks;
  Alcotest.(check string) "json identical" (O.Export.json direct) (O.Export.json merged);
  Alcotest.(check string) "prometheus identical" (O.Export.prometheus direct)
    (O.Export.prometheus merged)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "gauge semantics" `Quick test_gauge;
    Alcotest.test_case "histogram le semantics" `Quick test_histogram;
    Alcotest.test_case "histogram validates buckets" `Quick test_histogram_validation;
    Alcotest.test_case "registry: get-or-create" `Quick test_registry_get_or_create;
    Alcotest.test_case "registry: labels normalized" `Quick test_registry_label_normalization;
    Alcotest.test_case "registry: rejects bad input" `Quick test_registry_rejects_bad_input;
    Alcotest.test_case "registry: deterministic order" `Quick test_registry_deterministic_order;
    Alcotest.test_case "registry: merge semantics" `Quick test_registry_merge;
    Alcotest.test_case "registry: merge rejects mismatches" `Quick test_registry_merge_mismatch;
    Alcotest.test_case "registry: sharded export identity" `Quick test_merge_export_identity;
    Alcotest.test_case "clocks: frozen/ticker/calls/monotonic" `Quick test_clocks;
    Alcotest.test_case "null sink records nothing" `Quick test_null_sink_records_nothing;
    Alcotest.test_case "spans sink aggregates" `Quick test_spans_sink_aggregates;
    Alcotest.test_case "spans sink records on exception" `Quick test_spans_sink_records_on_exception;
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "json golden" `Quick test_json_golden;
    Alcotest.test_case "ndjson primitives" `Quick test_ndjson_primitives;
    Alcotest.test_case "json snapshot carries non-finite gauges" `Quick
      test_json_non_finite_gauge;
    Alcotest.test_case "trace ndjson golden" `Quick test_trace_ndjson_golden;
    Alcotest.test_case "pending profile semantics" `Quick test_pending_profile;
    Alcotest.test_case "profiles drain on live runs" `Quick test_profiles_from_live_run;
    Alcotest.test_case "telemetry never changes schedules" `Quick test_obs_does_not_change_schedules;
    Alcotest.test_case "counters reconcile with metrics" `Quick test_counters_reconcile;
    Alcotest.test_case "restart counter mirrors trace" `Quick test_restart_counter;
    Alcotest.test_case "timed obs records all phases" `Quick test_timed_obs_records_phases;
  ]
