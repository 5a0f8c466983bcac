(* Tests for the telemetry layer (lib/obs/) and its driver wiring.

   The exporter goldens are exact byte-for-byte strings: the registry
   iterates deterministically and floats print as %.12g when that reads
   back and %.17g otherwise, so any drift in the snapshot format is a
   real change.

   The differential tests are the layer's core contract: schedules and
   traces are byte-identical with telemetry off and on. *)

open Sched_model
module O = Sched_obs
module Metric = O.Metric
module Registry = O.Registry
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
  Alcotest.(check (float 0.)) "starts at 0" 0. (Metric.Gauge.value g);
  Metric.Gauge.set g 4.;
  Metric.Gauge.set g 2.5;
  Alcotest.(check (float 0.)) "last set wins" 2.5 (Metric.Gauge.value g)

(* --- registry ---------------------------------------------------------- *)

let test_registry_get_or_create () =
  let reg = Registry.create () in
  let a = Registry.counter reg "hits_total" in
  let b = Registry.counter reg "hits_total" in
  Metric.Counter.inc a;
  Metric.Counter.inc b;
  (* Same cell: both increments visible through either handle. *)
  Alcotest.(check (float 0.)) "shared" 2. (Metric.Counter.value a);
  Alcotest.(check int) "one entry" 1 (List.length (Registry.entries reg))

let test_registry_label_normalization () =
  let reg = Registry.create () in
  let a = Registry.gauge reg ~labels:[ ("b", "2"); ("a", "1") ] "depth" in
  let b = Registry.gauge reg ~labels:[ ("a", "1"); ("b", "2") ] "depth" in
  Metric.Gauge.set a 1.;
  Metric.Gauge.set b 2.;
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

(* --- exporter goldens -------------------------------------------------- *)

let golden_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"Total things" "things_total" in
  Metric.Counter.add c 3.;
  let g = Registry.gauge reg ~labels:[ ("machine", "1") ] "queue_depth" in
  Metric.Gauge.set g 2.5;
  reg

let test_json_golden () =
  let expected =
    "{\n\
    \  \"schema\": \"rejsched.metrics/1\",\n\
    \  \"metrics\": [\n\
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
  Alcotest.(check string) "negative zero" "-0" (J.float_repr (-0.));
  Alcotest.(check string) "1e15" "1000000000000000" (J.float_repr 1e15);
  Alcotest.(check string) "-1e15" "-1000000000000000" (J.float_repr (-1e15));
  Alcotest.(check string) "min_int" (string_of_int min_int) (J.int_repr min_int);
  Alcotest.(check string) "line"
    "{\"schema\":\"s/1\",\"a\":1,\"b\":\"x\\\"y\",\"c\":null,\"d\":true}"
    (J.line ~schema:"s/1"
       [ ("a", J.Int 1); ("b", J.String "x\"y"); ("c", J.Null); ("d", J.Bool true) ])

(* The definitions [float_repr] and [escape] had when they went through
   [Printf] and a fresh [Buffer] per call, kept as the reference: the
   faster writers must produce the same bytes. *)
let reference_float_repr v =
  if Float.is_nan v then "\"NaN\""
  else if v = Float.infinity then "\"Infinity\""
  else if v = Float.neg_infinity then "\"-Infinity\""
  else if Float.is_integer v && Float.abs v <= 1e15 then Printf.sprintf "%.0f" v
  else begin
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  end

let reference_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [float_repr] has an exact OCaml path for non-integral values with
   1e-4 <= |v| < 1e11 and falls back to printf elsewhere and on exact
   halves, so besides QCheck's floats, arbitrary bit patterns (NaNs,
   infinities, subnormals) and subnormals on their own — which almost
   never land in that range — the generators aim at it: log-uniform
   magnitudes of both signs, serve-burst's quarter grid, decimals of at
   most 12 digits, the neighbours of powers of ten (the range's ends
   among them), 12-digit carries (9.9999999999995 rounds up into the
   next decade), and dyadic values i + 2^-j, some of which sit exactly
   half-way at the 12th or 17th digit (1 + 2^-12 = 1.000244140625).
   The edges add the 1e15 switch between the integral and the general
   form and the signed zeros. *)
let arb_repr_float =
  let pow10 d = float_of_string ("1e" ^ string_of_int d) in
  let signed = QCheck.Gen.(map2 (fun v neg -> if neg then -.v else v)) in
  let rec step f n v = if n = 0 then v else step f (n - 1) (f v) in
  let nudge v n = if n < 0 then step Float.pred (-n) v else step Float.succ n v in
  let edges =
    [ 1e15; -1e15; Float.pred 1e15; Float.succ 1e15; 1e15 +. 1.; 1e15 +. 2.; -0.0; 0.0;
      Float.min_float; Float.pred Float.min_float; 5e-324; Float.max_float; 0.1; 1e-7;
      123456789012.5; 1e-4; Float.pred 1e-4; Float.succ 1e-4; Float.pred 1e11;
      9.9999999999995; Float.pred 9.9999999999995; Float.succ 9.9999999999995;
      99999.9999999995; Float.pred 99999.9999999995; Float.succ 99999.9999999995;
      1. +. 0x1p-12; 4996.2489642590317 ]
  in
  QCheck.(
    set_print (Printf.sprintf "%h")
      (oneof
         [
           float;
           make Gen.(map Int64.float_of_bits ui64);
           make Gen.(map (fun b -> Int64.(float_of_bits (logand b 0x800F_FFFF_FFFF_FFFFL))) ui64);
           oneofl edges;
           make (signed Gen.(map (fun x -> 10. ** x) (float_range (-4.) 11.)) Gen.bool);
           make Gen.(map (fun k -> 0.25 *. float_of_int k) (int_range 0 4_000_000));
           make
             (signed
                Gen.(map2 (fun k d -> float_of_int k /. pow10 d) (int_range 1 999_999_999_999) (int_range 0 16))
                Gen.bool);
           make Gen.(map2 (fun d n -> nudge (pow10 d) n) (int_range (-5) 12) (int_range (-3) 3));
           make
             Gen.(
               map2
                 (fun d n -> nudge (float_of_string (Printf.sprintf "9.9999999999995e%d" d)) n)
                 (int_range (-5) 10) (int_range (-3) 3));
           make
             (signed
                Gen.(map2 (fun i j -> float_of_int i +. Float.ldexp 1. (-j)) (int_range 0 1_000_000) (int_range 1 45))
                Gen.bool);
         ]))

let test_float_repr_matches_printf =
  QCheck.Test.make ~name:"float_repr equals the Printf definition" ~count:200_000 arb_repr_float
    (fun v -> String.equal (J.float_repr v) (reference_float_repr v))
  |> QCheck_alcotest.to_alcotest

(* [int_repr] writes [string_of_int]'s digits in OCaml, and
   [float_repr]'s integral branch (|v| <= 1e15) is the same digit writer,
   so both are held to the C formatters: any int, the ends of the int
   range, powers of ten and their neighbours (digit-count boundaries),
   and the integral floats up to the 1e15 switch (-0 is pinned in
   "ndjson primitives"). *)
let arb_int_repr =
  let edges =
    [ 0; 1; -1; 9; 10; -10; min_int; max_int; min_int + 1; max_int - 1; 1_000_000_000_000_000;
      -1_000_000_000_000_000; 999_999_999_999_999; 1_000_000_000_000_001 ]
  in
  let rec pow10 d = if d = 0 then 1 else 10 * pow10 (d - 1) in
  QCheck.(
    make ~print:string_of_int
      Gen.(
        oneof
          [
            int;
            int_range (-1000) 1000;
            oneofl edges;
            map3 (fun d delta neg -> (if neg then -1 else 1) * (pow10 d + delta)) (int_range 0 18) (int_range (-1) 1) bool;
            int_range (-1_000_000_000_000_000) 1_000_000_000_000_000;
          ]))

let test_int_repr_matches_printf =
  QCheck.Test.make ~name:"int_repr and integral float_repr equal string_of_int and %.0f"
    ~count:100_000 arb_int_repr (fun i ->
      let v = float_of_int i in
      String.equal (J.int_repr i) (string_of_int i)
      && (Float.abs v > 1e15 || String.equal (J.float_repr v) (Printf.sprintf "%.0f" v)))
  |> QCheck_alcotest.to_alcotest

let test_escape_matches_reference =
  QCheck.Test.make ~name:"escape equals the char-by-char definition" ~count:5000
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.(map Char.chr (int_range 0 255)))
    (fun s -> String.equal (J.escape s) (reference_escape s))
  |> QCheck_alcotest.to_alcotest

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
  Alcotest.(check string) "ndjson" expected (Test_util.trace_ndjson t)

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
  (Serialize.schedule_to_string s, Test_util.trace_ndjson trace)

let run_fr obs inst =
  let module FR = Rejection.Flow_reject in
  let trace = Sched_sim.Trace.create () in
  let s = Test_util.schedule_of ~trace ?obs (FR.policy (FR.config ~eps:0.25 ())) inst in
  (Serialize.schedule_to_string s, Test_util.trace_ndjson trace)

let run_restart obs inst =
  let module RS = Sched_baselines.Restart_spt in
  let trace = Sched_sim.Trace.create () in
  let s, _, _ = Sched_sim.Driver.run ~trace ?obs (RS.policy (RS.config ~max_restarts:1 ())) inst in
  (Serialize.schedule_to_string s, Test_util.trace_ndjson trace)

let test_obs_does_not_change_schedules () =
  List.iter
    (fun (name, run) ->
      List.iter
        (fun inst ->
          let bare_s, bare_t = run None inst in
          let counted_s, counted_t = run (Some (O.Obs.create ())) inst in
          let check what a b =
            if a <> b then
              Alcotest.failf "%s: %s not byte-identical on %s" name what inst.Instance.name
          in
          check "schedule" bare_s counted_s;
          check "trace" bare_t counted_t)
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
      let s = Test_util.schedule_of ~obs (FR.policy (FR.config ~eps:0.25 ())) inst in
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

(* [Obs.timed] is [create ()] under another name (the layer ladder
   still calls it): it exports the same counters and gauges, nothing
   else. *)
let test_timed_obs_counters_only () =
  Alcotest.(check int) "a fresh handle records nothing" 0
    (List.length (Registry.entries (O.Obs.registry (O.Obs.create ()))));
  let inst = Test_util.random_instance ~seed:13 ~n:25 ~m:2 () in
  let export obs =
    ignore (Sched_sim.Driver.run ~obs Sched_baselines.Greedy_dispatch.spt inst);
    let reg = O.Obs.registry obs in
    Alcotest.(check int) "dispatch = n" (Instance.n inst) (counter_value reg "sched_dispatch_total");
    List.filter_map
      (fun (e : Registry.entry) ->
        match e.Registry.instrument with
        | _ when e.Registry.name = "sched_flat_loop_minor_words_total" -> None
        | Registry.Counter c -> Some (e.Registry.name, e.Registry.labels, Metric.Counter.value c)
        | Registry.Gauge g -> Some (e.Registry.name, e.Registry.labels, Metric.Gauge.value g))
      (Registry.entries reg)
  in
  Alcotest.(check (list (triple string (list (pair string string)) (float 0.))))
    "same instruments and values"
    (export (O.Obs.create ()))
    (export (O.Obs.timed ()))

(* The snapshots `run --telemetry` (driver counters and gauges) and
   `fuzz --telemetry` (oracle verdicts through [Check_obs.record]) write,
   pinned byte for byte on a fixed instance.  The flat loop's minor-words
   counter differs between dev and release builds, so its line is
   dropped before the comparison. *)
let telemetry_json reg =
  String.split_on_char '\n' (O.Export.json reg)
  |> List.filter (fun l -> not (Test_util.contains l "sched_flat_loop_minor_words_total"))
  |> String.concat "\n"

let pin_instance () = Test_util.random_instance ~weighted:true ~seed:2004 ~n:12 ~m:2 ()

let run_telemetry_snapshot () =
  let inst = pin_instance () in
  let module FR = Rejection.Flow_reject in
  let module RS = Sched_baselines.Restart_spt in
  let snapshot policy =
    let obs = O.Obs.create () in
    ignore (Sched_sim.Driver.run ~obs policy inst);
    telemetry_json (O.Obs.registry obs)
  in
  String.concat ""
    [
      snapshot (FR.policy (FR.config ~eps:0.25 ()));
      snapshot Sched_baselines.Greedy_dispatch.spt;
      snapshot (RS.policy (RS.config ~max_restarts:1 ()));
    ]

let oracle_telemetry_snapshot () =
  let inst = pin_instance () in
  let reg = Registry.create () in
  let s = Test_util.schedule_of Sched_baselines.Greedy_dispatch.spt inst in
  Sched_check.Check_obs.record reg (Sched_check.Oracle.check s);
  let module V = Sched_model.Violation in
  Sched_check.Check_obs.record reg
    [ V.make V.Machine_overlap "x"; V.make ~job:3 V.Metric_drift "y"; V.make V.Machine_overlap "z" ];
  telemetry_json reg

let expected_run_telemetry =
  {|{
  "schema": "rejsched.metrics/1",
  "metrics": [
    { "name": "sched_complete_total", "type": "counter", "labels": {}, "value": 9 },
    { "name": "sched_dispatch_total", "type": "counter", "labels": {}, "value": 12 },
    { "name": "sched_flat_loop_events_total", "type": "counter", "labels": {}, "value": 22 },
    { "name": "sched_inflight_jobs", "type": "gauge", "labels": {"machine":"0"}, "value": 0 },
    { "name": "sched_inflight_jobs", "type": "gauge", "labels": {"machine":"1"}, "value": 0 },
    { "name": "sched_pending_jobs", "type": "gauge", "labels": {"machine":"0"}, "value": 0 },
    { "name": "sched_pending_jobs", "type": "gauge", "labels": {"machine":"1"}, "value": 0 },
    { "name": "sched_reject_midrun_total", "type": "counter", "labels": {}, "value": 1 },
    { "name": "sched_reject_total", "type": "counter", "labels": {}, "value": 3 },
    { "name": "sched_restart_total", "type": "counter", "labels": {}, "value": 0 },
    { "name": "sched_start_total", "type": "counter", "labels": {}, "value": 10 }
  ]
}
{
  "schema": "rejsched.metrics/1",
  "metrics": [
    { "name": "sched_complete_total", "type": "counter", "labels": {}, "value": 12 },
    { "name": "sched_dispatch_total", "type": "counter", "labels": {}, "value": 12 },
    { "name": "sched_flat_loop_events_total", "type": "counter", "labels": {}, "value": 24 },
    { "name": "sched_inflight_jobs", "type": "gauge", "labels": {"machine":"0"}, "value": 0 },
    { "name": "sched_inflight_jobs", "type": "gauge", "labels": {"machine":"1"}, "value": 0 },
    { "name": "sched_pending_jobs", "type": "gauge", "labels": {"machine":"0"}, "value": 0 },
    { "name": "sched_pending_jobs", "type": "gauge", "labels": {"machine":"1"}, "value": 0 },
    { "name": "sched_reject_midrun_total", "type": "counter", "labels": {}, "value": 0 },
    { "name": "sched_reject_total", "type": "counter", "labels": {}, "value": 0 },
    { "name": "sched_restart_total", "type": "counter", "labels": {}, "value": 0 },
    { "name": "sched_start_total", "type": "counter", "labels": {}, "value": 12 }
  ]
}
{
  "schema": "rejsched.metrics/1",
  "metrics": [
    { "name": "sched_complete_total", "type": "counter", "labels": {}, "value": 12 },
    { "name": "sched_dispatch_total", "type": "counter", "labels": {}, "value": 12 },
    { "name": "sched_flat_loop_events_total", "type": "counter", "labels": {}, "value": 26 },
    { "name": "sched_inflight_jobs", "type": "gauge", "labels": {"machine":"0"}, "value": 0 },
    { "name": "sched_inflight_jobs", "type": "gauge", "labels": {"machine":"1"}, "value": 0 },
    { "name": "sched_pending_jobs", "type": "gauge", "labels": {"machine":"0"}, "value": 0 },
    { "name": "sched_pending_jobs", "type": "gauge", "labels": {"machine":"1"}, "value": 0 },
    { "name": "sched_reject_midrun_total", "type": "counter", "labels": {}, "value": 0 },
    { "name": "sched_reject_total", "type": "counter", "labels": {}, "value": 0 },
    { "name": "sched_restart_total", "type": "counter", "labels": {}, "value": 2 },
    { "name": "sched_start_total", "type": "counter", "labels": {}, "value": 14 }
  ]
}
|}

let expected_oracle_telemetry =
  {|{
  "schema": "rejsched.metrics/1",
  "metrics": [
    { "name": "sched_check_clean_total", "type": "counter", "labels": {}, "value": 1 },
    { "name": "sched_check_schedules_total", "type": "counter", "labels": {}, "value": 2 },
    { "name": "sched_check_violations_total", "type": "counter", "labels": {"check":"machine-overlap"}, "value": 2 },
    { "name": "sched_check_violations_total", "type": "counter", "labels": {"check":"metric-drift"}, "value": 1 }
  ]
}
|}

let test_run_telemetry_pin () =
  Alcotest.(check string) "run --telemetry snapshot" expected_run_telemetry (run_telemetry_snapshot ())

let test_oracle_telemetry_pin () =
  Alcotest.(check string) "fuzz --telemetry snapshot" expected_oracle_telemetry
    (oracle_telemetry_snapshot ())

(* --- registry merge (parallel shard fold-back) ------------------------- *)

let test_registry_merge () =
  let src = Registry.create () and dst = Registry.create () in
  Metric.Counter.add (Registry.counter dst "jobs_total") 2.;
  Metric.Counter.add (Registry.counter src "jobs_total") 3.;
  Metric.Gauge.set (Registry.gauge dst "queue_depth") 7.;
  Metric.Gauge.set (Registry.gauge src "queue_depth") 4.;
  Metric.Counter.inc (Registry.counter src ~labels:[ ("experiment", "e9") ] "only_in_src");
  Registry.merge ~into:dst src;
  Alcotest.(check (float 0.)) "counters add" 5.
    (Metric.Counter.value (Registry.counter dst "jobs_total"));
  Alcotest.(check (float 0.)) "gauge: last-merged wins" 4.
    (Metric.Gauge.value (Registry.gauge dst "queue_depth"));
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
    Metric.Gauge.set (Registry.gauge reg ~labels:[ ("machine", "0") ] "depth") (float_of_int k)
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
  Alcotest.(check string) "json identical" (O.Export.json direct) (O.Export.json merged)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "gauge semantics" `Quick test_gauge;
    Alcotest.test_case "registry: get-or-create" `Quick test_registry_get_or_create;
    Alcotest.test_case "registry: labels normalized" `Quick test_registry_label_normalization;
    Alcotest.test_case "registry: rejects bad input" `Quick test_registry_rejects_bad_input;
    Alcotest.test_case "registry: deterministic order" `Quick test_registry_deterministic_order;
    Alcotest.test_case "registry: merge semantics" `Quick test_registry_merge;
    Alcotest.test_case "registry: merge rejects mismatches" `Quick test_registry_merge_mismatch;
    Alcotest.test_case "registry: sharded export identity" `Quick test_merge_export_identity;
    Alcotest.test_case "json golden" `Quick test_json_golden;
    Alcotest.test_case "ndjson primitives" `Quick test_ndjson_primitives;
    test_float_repr_matches_printf;
    test_int_repr_matches_printf;
    test_escape_matches_reference;
    Alcotest.test_case "json snapshot carries non-finite gauges" `Quick
      test_json_non_finite_gauge;
    Alcotest.test_case "trace ndjson golden" `Quick test_trace_ndjson_golden;
    Alcotest.test_case "pending profile semantics" `Quick test_pending_profile;
    Alcotest.test_case "profiles drain on live runs" `Quick test_profiles_from_live_run;
    Alcotest.test_case "telemetry never changes schedules" `Quick test_obs_does_not_change_schedules;
    Alcotest.test_case "counters reconcile with metrics" `Quick test_counters_reconcile;
    Alcotest.test_case "restart counter mirrors trace" `Quick test_restart_counter;
    Alcotest.test_case "timed obs counters only" `Quick test_timed_obs_counters_only;
    Alcotest.test_case "run telemetry snapshot pinned" `Quick test_run_telemetry_pin;
    Alcotest.test_case "oracle telemetry snapshot pinned" `Quick test_oracle_telemetry_pin;
  ]
