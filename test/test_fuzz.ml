(* Fuzzer harness tests: deterministic reports, pool-width independence,
   and the failure shrinker (exercised through a synthetic always-failing
   registry entry — the real policies are expected to stay clean). *)

open Sched_model
module Fuzz = Sched_fuzz.Fuzz
module P = Sched_experiments.Policy_registry
module Pool = Sched_stats.Pool
module Oracle = Sched_check.Oracle

let run ?(domains = 1) cfg = Pool.with_pool ~domains (fun pool -> Fuzz.run ~pool cfg)

let test_deterministic () =
  let cfg = Fuzz.config ~budget:24 ~seed:5 () in
  let r1 = run cfg and r2 = run cfg in
  Alcotest.(check string) "same seed, same report" (Fuzz.report_to_string r1)
    (Fuzz.report_to_string r2);
  Alcotest.(check int) "budget honoured" 24 r1.Fuzz.evaluated;
  Alcotest.(check bool) "coverage observed" true (r1.Fuzz.coverage > 0);
  if r1.Fuzz.failures <> [] then
    Alcotest.failf "registry policies failed fuzzing:\n%s" (Fuzz.report_to_string r1)

(* The second, larger config must also come back clean. *)
let test_width_independent () =
  let cfg = Fuzz.config ~budget:24 ~seed:5 () in
  let r1 = run ~domains:1 cfg and r4 = run ~domains:4 cfg in
  Alcotest.(check string) "widths 1 and 4 byte-identical" (Fuzz.report_to_string r1)
    (Fuzz.report_to_string r4);
  let cfg = Fuzz.config ~budget:96 ~seed:7 () in
  let r1 = run ~domains:1 cfg in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "seed 7: widths 1 and %d byte-identical" d)
        (Fuzz.report_to_string r1)
        (Fuzz.report_to_string (run ~domains:d cfg)))
    [ 2; 4 ];
  if r1.Fuzz.failures <> [] then
    Alcotest.failf "registry policies failed fuzzing:\n%s" (Fuzz.report_to_string r1)

(* A registry entry that cannot satisfy its budget: the oracle property
   fails on every instance, so the shrinker must walk all the way down to
   a single job on a single machine. *)
let impossible_entry () =
  match P.find "greedy-spt" with
  | Some e ->
      {
        e with
        P.name = "impossible-budget";
        budget = Some (Oracle.Count_fraction (-1.));
        reference = None;
      }
  | None -> Alcotest.fail "greedy-spt not registered"

let test_property_fails () =
  let inst = Test_util.random_instance ~seed:2 ~n:12 ~m:2 () in
  (match P.find "greedy-spt" with
  | Some e ->
      List.iter
        (fun prop ->
          match Fuzz.property_fails e prop inst with
          | None -> ()
          | Some d -> Alcotest.failf "greedy-spt fails %s: %s" prop d)
        [ "oracle"; "permute"; "relabel"; "scale" ]
  | None -> Alcotest.fail "greedy-spt not registered");
  match Fuzz.property_fails (impossible_entry ()) "oracle" inst with
  | Some _ -> ()
  | None -> Alcotest.fail "impossible budget did not fail"

let test_shrinker () =
  let cfg = Fuzz.config ~budget:2 ~policies:[ impossible_entry () ] ~seed:1 () in
  let r = run cfg in
  Alcotest.(check bool) "failures collected" true (r.Fuzz.failures <> []);
  List.iter
    (fun (f : Fuzz.failure) ->
      (* The budget is checked by the plain oracle pass and again inside the
         relabel equivalence, so both properties report it. *)
      Alcotest.(check bool)
        ("budget-bearing property: " ^ f.Fuzz.prop)
        true
        (List.mem f.Fuzz.prop [ "oracle"; "relabel" ]);
      Alcotest.(check int) "shrunk to one job" 1 (Instance.n f.Fuzz.shrunk);
      (* Relabeling is vacuous on a single machine, so its minimal
         counterexample keeps two. *)
      Alcotest.(check int) "shrunk machine count"
        (if f.Fuzz.prop = "relabel" then 2 else 1)
        (Instance.m f.Fuzz.shrunk);
      (* Every failure ships flight-recorder forensics of the shrunk
         repro: the last decisions as schema-tagged trace/2 NDJSON. *)
      Alcotest.(check bool)
        ("forensics captured: " ^ f.Fuzz.prop)
        true
        (Test_util.contains f.Fuzz.forensics "\"schema\":\"rejsched.trace/2\"");
      Alcotest.(check bool) "forensics carry the dispatch provenance" true
        (Test_util.contains f.Fuzz.forensics "\"event\":\"dispatch\"");
      (* The shrunk repro must still fail the property it was shrunk for. *)
      match Fuzz.property_fails (impossible_entry ()) f.Fuzz.prop f.Fuzz.shrunk with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk instance no longer fails")
    r.Fuzz.failures

let test_telemetry () =
  let reg = Sched_obs.Registry.create () in
  let cfg = Fuzz.config ~budget:6 ~seed:3 () in
  let _ = Pool.with_pool ~domains:1 (fun pool -> Fuzz.run ~registry:reg ~pool cfg) in
  match Sched_obs.Registry.find reg ~name:"sched_check_schedules_total" ~labels:[] with
  | Some { Sched_obs.Registry.instrument = Sched_obs.Registry.Counter c; _ } ->
      Alcotest.(check bool) "audits recorded" true (Sched_obs.Metric.Counter.value c > 0.)
  | _ -> Alcotest.fail "fuzz run recorded no telemetry"

let suite =
  [
    Alcotest.test_case "deterministic reports" `Quick test_deterministic;
    Alcotest.test_case "pool-width independence" `Quick test_width_independent;
    Alcotest.test_case "property_fails probes" `Quick test_property_fails;
    Alcotest.test_case "shrinker reaches minimum" `Quick test_shrinker;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry;
  ]
