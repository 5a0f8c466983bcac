(* End-to-end tests of the rejsched executable: the telemetry/trace export
   flags and the usage-error exit convention.

   The binary is a declared test dependency, so it sits at ../bin/ relative
   to the test cwd inside _build.  The reconciliation tests rerun the same
   configuration in-process — generator, seed and policy are shared code,
   so the CLI's exported counters and trace must match exactly. *)

open Sched_model

let exe = Filename.concat ".." (Filename.concat "bin" "rejsched.exe")

let shell cmd =
  match Sys.command cmd with
  | code -> code

let read_file path = In_channel.with_open_text path In_channel.input_all

let temp suffix = Filename.temp_file "rejsched_cli" suffix

(* Pull a counter value out of the metrics JSON snapshot: find the entry
   named [name] and return the integer after its "value": field. *)
let counter_in_json json name =
  let needle = Printf.sprintf "\"name\": \"%s\"" name in
  let nlen = String.length needle and jlen = String.length json in
  let rec find i =
    if i + nlen > jlen then Alcotest.failf "counter %s not in snapshot" name
    else if String.sub json i nlen = needle then i + nlen
    else find (i + 1)
  in
  let from = find 0 in
  let vneedle = "\"value\": " in
  let vlen = String.length vneedle in
  let rec vfind i =
    if i + vlen > jlen then Alcotest.failf "no value for %s" name
    else if String.sub json i vlen = vneedle then i + vlen
    else vfind (i + 1)
  in
  let start = vfind from in
  let rec stop k =
    if k < jlen then match json.[k] with '0' .. '9' -> stop (k + 1) | _ -> k else k
  in
  int_of_string (String.sub json start (stop start - start))

(* The CLI's thm1 run on the uniform workload, replayed in-process. *)
let in_process ~n ~m ~seed ~eps =
  let inst = Sched_workload.Gen.instance (Sched_workload.Suite.flow_uniform ~n ~m) ~seed in
  let module FR = Rejection.Flow_reject in
  let trace = Sched_sim.Trace.create () in
  let s = Test_util.schedule_of ~trace (FR.policy (FR.config ~eps ())) inst in
  (s, trace)

(* An unknown name is a usage error: exit 2 with [needle] on stderr.
   [args] starts with the subcommand. *)
let check_unknown_name args needle =
  let err = temp ".txt" in
  let code = shell (Printf.sprintf "%s %s < /dev/null > /dev/null 2> %s" exe args err) in
  Alcotest.(check int) (args ^ " exit code") 2 code;
  Alcotest.(check bool) (args ^ " message on stderr") true
    (Test_util.contains (read_file err) needle);
  Sys.remove err

let test_unknown_policy_exits_2 () =
  List.iter
    (fun cmd -> check_unknown_name (cmd ^ " -p no-such-policy") "unknown policy")
    [ "run"; "serve"; "trace" ]

let test_unknown_sizes_exits_2 () =
  check_unknown_name "run --sizes no-such-dist" "unknown size distribution"

let test_unknown_experiment_exits_2 () =
  check_unknown_name "experiment no-such-id" "unknown experiment"

let test_unknown_game_exits_2 () = check_unknown_name "adversary no-such-game" "unknown game"

let test_telemetry_reconciles_with_metrics () =
  let tel = temp ".json" in
  let code =
    shell
      (Printf.sprintf "%s run -p thm1 -w uniform -n 150 -m 3 --seed 42 --eps 0.25 --telemetry %s > /dev/null"
         exe tel)
  in
  Alcotest.(check int) "exit code" 0 code;
  let json = read_file tel in
  Sys.remove tel;
  Alcotest.(check bool) "schema tagged" true (Test_util.contains json "rejsched.metrics/1");
  let s, _ = in_process ~n:150 ~m:3 ~seed:42 ~eps:0.25 in
  let r = Metrics.rejection s in
  Alcotest.(check int) "dispatch = n" 150 (counter_in_json json "sched_dispatch_total");
  Alcotest.(check int) "reject = Metrics.rejection.count" r.Metrics.count
    (counter_in_json json "sched_reject_total");
  Alcotest.(check int) "midrun = Metrics.rejection.mid_run" r.Metrics.mid_run
    (counter_in_json json "sched_reject_midrun_total");
  Alcotest.(check int) "complete + reject = n" 150
    (counter_in_json json "sched_complete_total" + counter_in_json json "sched_reject_total")

let test_telemetry_stdout () =
  let out = temp ".txt" in
  let code =
    shell (Printf.sprintf "%s run -p spt -n 40 -m 2 --telemetry - > %s" exe out)
  in
  Alcotest.(check int) "exit code" 0 code;
  let text = read_file out in
  Sys.remove out;
  Alcotest.(check bool) "snapshot on stdout" true
    (Test_util.contains text "\"schema\": \"rejsched.metrics/1\"");
  Alcotest.(check bool) "counters present" true
    (Test_util.contains text "sched_dispatch_total");
  Alcotest.(check bool) "metrics table still printed" true
    (Test_util.contains text "total flow (completed)")

let test_trace_ndjson_matches_in_process () =
  let path = temp ".ndjson" in
  let code =
    shell
      (Printf.sprintf
         "%s run -p thm1 -w uniform -n 80 -m 2 --seed 7 --eps 0.25 --trace-ndjson %s > /dev/null"
         exe path)
  in
  Alcotest.(check int) "exit code" 0 code;
  let cli = read_file path in
  Sys.remove path;
  let _, trace = in_process ~n:80 ~m:2 ~seed:7 ~eps:0.25 in
  Alcotest.(check string) "byte-identical trace" (Test_util.trace_ndjson trace) cli

(* The trace subcommand end-to-end: replay a corpus case under the flight
   recorder, and the exported NDJSON must match an in-process replay
   byte-for-byte while the Chrome document passes the Perfetto shape
   check. *)
let test_trace_subcommand_case () =
  let case_path = Filename.concat (Test_util.data_dir "fuzz_corpus") "restricted-flow-reject.case" in
  let ndjson = temp ".ndjson" and chrome = temp ".json" in
  let code =
    shell
      (Printf.sprintf "%s trace --case %s --out-ndjson %s --out-chrome %s 2> /dev/null" exe
         case_path ndjson chrome)
  in
  Alcotest.(check int) "exit code" 0 code;
  let cli_ndjson = read_file ndjson and cli_chrome = read_file chrome in
  Sys.remove ndjson;
  Sys.remove chrome;
  (match Sched_sim.Perfetto.validate cli_chrome with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "CLI chrome export fails validation: %s" msg);
  let case =
    match Sched_fuzz.Corpus.parse (read_file case_path) with
    | Ok c -> c
    | Error e -> Alcotest.failf "corpus case unreadable: %s" e
  in
  let entry =
    match Sched_experiments.Policy_registry.find case.Sched_fuzz.Corpus.policy with
    | Some e -> e
    | None -> Alcotest.fail "case policy not registered"
  in
  let recorder = Sched_obs.Recorder.create () in
  ignore (entry.Sched_experiments.Policy_registry.run ~recorder case.Sched_fuzz.Corpus.instance);
  Alcotest.(check string) "byte-identical ndjson"
    (Sched_sim.Trace_export.recorder_to_ndjson recorder)
    cli_ndjson;
  Alcotest.(check string) "byte-identical chrome"
    (Sched_sim.Perfetto.to_chrome
       ~machines:(Instance.m case.Sched_fuzz.Corpus.instance)
       recorder)
    cli_chrome

(* Both exports accept '-': everything lands on stdout through the shared
   sink helper, schema-tagged and shape-valid. *)
let test_trace_subcommand_stdout () =
  let out = temp ".txt" in
  let code =
    shell
      (Printf.sprintf
         "%s trace -p greedy-spt -n 20 -m 2 --seed 5 --last 8 --out-ndjson - --out-chrome - > %s 2> /dev/null"
         exe out)
  in
  Alcotest.(check int) "exit code" 0 code;
  let text = read_file out in
  Sys.remove out;
  Alcotest.(check bool) "trace/2 lines on stdout" true
    (Test_util.contains text "\"schema\":\"rejsched.trace/2\"");
  Alcotest.(check bool) "chrome document on stdout" true
    (Test_util.contains text "\"traceEvents\"")

let test_trace_ring_cap_rejected () =
  let err = temp ".txt" in
  let code =
    shell (Printf.sprintf "%s trace -n 10 -m 2 --ring-cap 0 > /dev/null 2> %s" exe err) in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "message on stderr" true
    (Test_util.contains (read_file err) "--ring-cap");
  Sys.remove err

(* --- serve ------------------------------------------------------------ *)

let arrival_lines =
  [
    {|{"job": 0, "release": 0.0, "sizes": [2.0, 3.0]}|};
    {|{"job": 1, "release": 0.5, "sizes": [1.0, 1.0], "weight": 2.0}|};
    {|{"job": 2, "release": 1.0, "sizes": ["Infinity", 2.5]}|};
    {|{"job": 3, "release": 4.0, "sizes": [0.5, 4.0]}|};
  ]

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

let lines_with needle text =
  String.split_on_char '\n' text |> List.filter (fun l -> Test_util.contains l needle)

(* The full stdout of a small run, trace/1 decisions and the serve/1
   progress and closing records alike, pinned byte for byte. *)
let test_serve_smoke () =
  let input = temp ".ndjson" and out = temp ".out" in
  write_lines input arrival_lines;
  let code =
    shell (Printf.sprintf "%s serve -p flow-reject -m 2 --input %s --batch 2 > %s" exe input out)
  in
  Alcotest.(check int) "exit code" 0 code;
  let text = read_file out in
  Sys.remove input;
  Sys.remove out;
  Alcotest.(check string) "stdout matches snapshots/serve-smoke.expected"
    (read_file (Filename.concat (Test_util.data_dir "snapshots") "serve-smoke.expected"))
    text;
  String.split_on_char '\n' text
  |> List.iter (fun l ->
         if String.trim l <> "" then
           match Sched_sim.Trace_export.schema_of_line l with
           | Some ("rejsched.trace/1" | "rejsched.serve/1") -> ()
           | Some other -> Alcotest.failf "unexpected schema %s" other
           | None -> Alcotest.failf "untagged serve output line: %s" l)

(* Splitting the stream across a checkpoint must replay into exactly the
   decisions and final summary of the uninterrupted serve run. *)
let test_serve_checkpoint_restore_identical () =
  let input = temp ".ndjson" and full = temp ".out" in
  let part1 = temp ".out" and part2 = temp ".out" and snap = temp ".snap" in
  write_lines input arrival_lines;
  Alcotest.(check int) "full run exits 0" 0
    (shell (Printf.sprintf "%s serve -p flow-reject -m 2 --input %s > %s" exe input full));
  let head2 = temp ".ndjson" and tail2 = temp ".ndjson" in
  write_lines head2 (List.filteri (fun k _ -> k < 2) arrival_lines);
  write_lines tail2 (List.filteri (fun k _ -> k >= 2) arrival_lines);
  Alcotest.(check int) "first half exits 0" 0
    (shell
       (Printf.sprintf "%s serve -p flow-reject -m 2 --input %s --checkpoint %s > %s" exe head2
          snap part1));
  Alcotest.(check int) "resumed half exits 0" 0
    (shell (Printf.sprintf "%s serve --restore %s --input %s > %s" exe snap tail2 part2));
  let decisions text = lines_with "rejsched.trace/1" text in
  let spliced = decisions (read_file part1) @ decisions (read_file part2) in
  Alcotest.(check (list string)) "decision stream identical across the suspend"
    (decisions (read_file full)) spliced;
  Alcotest.(check (list string)) "final summary identical across the suspend"
    (lines_with {|"type":"closed"|} (read_file full))
    (lines_with {|"type":"closed"|} (read_file part2));
  List.iter Sys.remove [ input; full; part1; part2; snap; head2; tail2 ]

(* The names 'list' prints under "policies": each line is a registry
   name, then its aliases in parentheses. *)
let listed_policies () =
  let out = temp ".txt" in
  Alcotest.(check int) "list exits 0" 0 (shell (Printf.sprintf "%s list > %s" exe out));
  let lines = String.split_on_char '\n' (read_file out) in
  Sys.remove out;
  let rec section = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"policies" l -> body rest
    | _ :: rest -> section rest
  and body = function
    | l :: rest when String.starts_with ~prefix:"  " l -> l :: body rest
    | _ -> []
  in
  section lines
  |> List.concat_map (fun l ->
         String.map (function '(' | ')' | ',' -> ' ' | c -> c) l
         |> String.split_on_char ' '
         |> List.filter (( <> ) ""))

(* Every name 'list' prints is one that run, serve and trace accept,
   and 'list' prints every name the registry resolves. *)
let test_list_names_accepted () =
  let module PR = Sched_experiments.Policy_registry in
  let names = listed_policies () in
  Alcotest.(check (list string)) "list prints the registry's names and aliases"
    (List.sort String.compare
       (List.map (fun (e : PR.entry) -> e.PR.name) PR.all @ List.map fst PR.aliases))
    (List.sort String.compare names);
  let input = temp ".ndjson" in
  write_lines input
    [
      {|{"job": 0, "release": 0.0, "sizes": [2.0, 3.0]}|};
      {|{"job": 1, "release": 0.5, "sizes": [1.0, 1.0]}|};
    ];
  List.iter
    (fun name ->
      List.iter
        (fun args ->
          let cmd = Printf.sprintf "%s %s > /dev/null 2> /dev/null" exe args in
          Alcotest.(check int) args 0 (shell cmd))
        [
          Printf.sprintf "run -p %s -n 20 -m 2" name;
          Printf.sprintf "serve -p %s -m 2 --input %s" name input;
          Printf.sprintf "trace -p %s -n 20 -m 2 --out-ndjson - --out-chrome -" name;
        ])
    names;
  Sys.remove input

(* An alias runs its entry: the CSV is the same, and the table differs
   only in its title line, which prints the name as given. *)
let test_run_alias_matches_canonical () =
  let run p flags =
    let out = temp ".txt" in
    Alcotest.(check int) (p ^ " exits 0") 0
      (shell (Printf.sprintf "%s run -p %s -n 120 -m 3 --seed 4 %s > %s" exe p flags out));
    let text = read_file out in
    Sys.remove out;
    text
  in
  Alcotest.(check string) "same CSV" (run "flow-reject" "--csv") (run "thm1" "--csv");
  match
    (String.split_on_char '\n' (run "flow-reject" ""), String.split_on_char '\n' (run "thm1" ""))
  with
  | title :: rows, title' :: rows' ->
      Alcotest.(check bool) "titles name the policy as given" true
        (Test_util.contains title "== flow-reject on"
        && Test_util.contains title' "== thm1 on");
      Alcotest.(check (list string)) "same rows" rows rows'
  | _ -> Alcotest.fail "empty run output"

(* Serve under an alias reports the entry's name: the snapshot it
   writes and its summary both say flow-reject. *)
let test_serve_alias_reports_name () =
  let input = temp ".ndjson" and snap = temp ".snap" and out = temp ".out" in
  write_lines input (List.filteri (fun k _ -> k < 2) arrival_lines);
  Alcotest.(check int) "serve -p thm1 exits 0" 0
    (shell
       (Printf.sprintf "%s serve -p thm1 -m 2 --input %s --checkpoint %s > %s" exe input snap out));
  (match Sched_sim.Snapshot.unwrap (Sched_sim.Snapshot.read_file snap) with
  | Ok (policy, _) -> Alcotest.(check string) "snapshot policy" "flow-reject" policy
  | Error e -> Alcotest.failf "snapshot: %s" (Sched_sim.Snapshot.error_to_string e));
  Alcotest.(check int) "summary names flow-reject" 1
    (List.length (lines_with {|"type":"suspended","policy":"flow-reject"|} (read_file out)));
  List.iter Sys.remove [ input; snap; out ]

(* run checks each entry under its own relaxation: restart-spt's
   restarted jobs are valid, so a run that restarts some exits 0. *)
let test_run_restart_spt_checked_with_restarts () =
  let ndjson = temp ".ndjson" in
  Alcotest.(check int) "run -p restart-spt exits 0" 0
    (shell
       (Printf.sprintf
          "%s run -p restart-spt -w pareto -n 200 -m 4 --csv --trace-ndjson %s > /dev/null" exe
          ndjson));
  Alcotest.(check bool) "the run restarts a job" true
    (lines_with {|"event":"restart"|} (read_file ndjson) <> []);
  Sys.remove ndjson

(* An --eps outside (0,1) is a usage error caught before the run starts:
   exit 2, and the --trace-ndjson file is never created. *)
let test_run_bad_eps_fails_fast () =
  List.iter
    (fun eps ->
      let ndjson = temp ".ndjson" and err = temp ".txt" in
      Sys.remove ndjson;
      Alcotest.(check int) (Printf.sprintf "--eps %s exits 2" eps) 2
        (shell
           (Printf.sprintf "%s run -p fifo --eps %s -n 50 -m 2 --trace-ndjson %s > /dev/null 2> %s"
              exe eps ndjson err));
      Alcotest.(check bool) (Printf.sprintf "--eps %s writes no trace" eps) false
        (Sys.file_exists ndjson);
      Alcotest.(check bool) "message names --eps" true (Test_util.contains (read_file err) "--eps");
      Sys.remove err)
    [ "5"; "0"; "1" ]

let test_serve_checkpoint_stdout () =
  (* '--checkpoint -' puts the snapshot alone on stdout, and the NDJSON
     a '--checkpoint FILE' run writes to stdout moves to stderr intact;
     the snapshot restores cleanly. *)
  let input = temp ".ndjson" and snap = temp ".snap" and err = temp ".out" in
  let snap_file = temp ".snap" and file_out = temp ".out" and out = temp ".out" in
  write_lines input (List.filteri (fun k _ -> k < 2) arrival_lines);
  Alcotest.(check int) "checkpoint to stdout exits 0" 0
    (shell
       (Printf.sprintf "%s serve -p greedy-spt -m 2 --input %s --checkpoint - > %s 2> %s" exe
          input snap err));
  Alcotest.(check bool) "stdout is the snapshot container" true
    (Test_util.contains (read_file snap) "rejsched-snap");
  Alcotest.(check int) "checkpoint to a file exits 0" 0
    (shell
       (Printf.sprintf "%s serve -p greedy-spt -m 2 --input %s --checkpoint %s > %s" exe input
          snap_file file_out));
  let stderr_text = read_file err in
  Alcotest.(check bool) "stderr holds the decisions" true
    (lines_with "rejsched.trace/1" stderr_text <> []);
  Alcotest.(check int) "stderr holds the suspended record"
    1 (List.length (lines_with {|"type":"suspended"|} stderr_text));
  Alcotest.(check string) "stderr equals stdout of the --checkpoint FILE run"
    (read_file file_out) stderr_text;
  let tail2 = temp ".ndjson" in
  write_lines tail2 (List.filteri (fun k _ -> k >= 2) arrival_lines);
  Alcotest.(check int) "restore from it exits 0" 0
    (shell (Printf.sprintf "%s serve --restore %s --input %s > %s" exe snap tail2 out));
  Alcotest.(check int) "resumed run closes"
    1 (List.length (lines_with {|"type":"closed"|} (read_file out)));
  List.iter Sys.remove [ input; snap; err; snap_file; file_out; out; tail2 ]

(* A live feed: one arrival, then the writer stays open.  Serve must
   flush the batch's decisions as soon as it is drained — output still
   buffered when 'timeout' kills the process would be lost. *)
let test_serve_live_feed_flushes () =
  let out = temp ".out" in
  let code =
    shell
      (Printf.sprintf "{ printf '%%s\\n' '%s'; sleep 3; } | timeout 1 %s serve -m 2 > %s"
         (List.hd arrival_lines) exe out)
  in
  Alcotest.(check int) "killed by timeout" 124 code;
  Alcotest.(check bool) "the first batch reached stdout" true
    (Test_util.contains (read_file out) {|"fed":1|});
  Sys.remove out

let test_serve_invalid_batch_rejected () =
  List.iter
    (fun flag ->
      let err = temp ".txt" in
      let code =
        shell (Printf.sprintf "%s serve %s < /dev/null > /dev/null 2> %s" exe flag err)
      in
      Alcotest.(check int) (flag ^ " exit code") 2 code;
      Alcotest.(check bool) (flag ^ " message on stderr") true
        (Test_util.contains (read_file err) "--batch");
      Sys.remove err)
    [ "--batch 0"; "--batch=-4" ]

let test_serve_corrupt_snapshot_rejected () =
  let snap = temp ".snap" and err = temp ".txt" in
  Out_channel.with_open_bin snap (fun oc -> Out_channel.output_string oc "rejsched-snapXXXX");
  let code =
    shell (Printf.sprintf "%s serve --restore %s < /dev/null > /dev/null 2> %s" exe snap err)
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "structured error on stderr" true
    (Test_util.contains (read_file err) "cannot restore");
  Sys.remove snap;
  Sys.remove err

(* Truncated JSON, job ids that are not non-negative integers in int
   range, a release that reads as infinity, and numbers outside JSON's
   grammar, which the reader reports at the number's first byte. *)
let test_serve_malformed_arrival_rejected () =
  List.iter
    (fun (line, expected) ->
      let input = temp ".ndjson" and err = temp ".txt" in
      write_lines input [ line ];
      let code =
        shell (Printf.sprintf "%s serve -m 2 --input %s > /dev/null 2> %s" exe input err)
      in
      Alcotest.(check int) (line ^ " exit code") 1 code;
      Alcotest.(check string) (line ^ " stderr") ("rejsched: bad arrival: " ^ expected ^ "\n")
        (read_file err);
      Sys.remove input;
      Sys.remove err)
    [
      ({|{"job": 0, "release": |}, "bad JSON: malformed number at offset 22");
      ({|{"job": 1e300, "release": 0.0, "sizes": [1.0, 1.0]}|}, {|"job" must be a non-negative integer|});
      ({|{"job": 1.5, "release": 0.0, "sizes": [1.0, 1.0]}|}, {|"job" must be a non-negative integer|});
      ({|{"job": -1, "release": 0.0, "sizes": [1.0, 1.0]}|}, {|"job" must be a non-negative integer|});
      ({|{"job":0,"release":1e400,"sizes":[1,1]}|}, "Job.create: release must be finite");
      ({|{"job":0,"release":+1,"sizes":[1,1]}|}, "bad JSON: malformed number at offset 19");
      ({|{"job":0,"release":.5,"sizes":[1,1]}|}, "bad JSON: malformed number at offset 19");
      ({|{"job":0,"release":1.,"sizes":[1,1]}|}, "bad JSON: malformed number at offset 19");
      ({|{"job":01,"release":0,"sizes":[1,1]}|}, "bad JSON: malformed number at offset 7");
      ({|{"job":0,"release":-,"sizes":[1,1]}|}, "bad JSON: malformed number at offset 19");
      ({|{"job":0,"release":0,"sizes":[1,1e]}|}, "bad JSON: malformed number at offset 32");
    ]

(* Serve retires as it goes, so job ids need not be dense: a gap is not
   an error at close. *)
let test_serve_sparse_ids_close () =
  let input = temp ".ndjson" and out = temp ".out" in
  write_lines input
    [
      {|{"job": 0, "release": 0.0, "sizes": [1.0]}|};
      {|{"job": 5, "release": 1.0, "sizes": [1.0]}|};
    ];
  let code = shell (Printf.sprintf "%s serve -m 1 --input %s > %s" exe input out) in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check int) "closes" 1 (List.length (lines_with {|"type":"closed"|} (read_file out)));
  Sys.remove input;
  Sys.remove out

(* Ids are keys, not indices: sparse ids up to 10^15 are served in the
   memory of a dense stream, and each decision echoes its id exactly. *)
let test_serve_huge_ids () =
  let input = temp ".ndjson" and out = temp ".out" and err = temp ".txt" in
  let ids = [ "0"; "100000000"; "1000000000000000" ] in
  write_lines input
    (List.mapi
       (fun k id ->
         Printf.sprintf {|{"job": %s, "release": %d.0, "sizes": [1.0, 2.0, 3.0, 4.0]}|} id k)
       ids);
  let code = shell (Printf.sprintf "%s serve -m 4 --input %s > %s 2> %s" exe input out err) in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "stderr" "" (read_file err);
  let text = read_file out in
  List.iter
    (fun id ->
      List.iter
        (fun event ->
          Alcotest.(check int)
            (Printf.sprintf "one %s of job %s" event id)
            1
            (List.length
               (lines_with (Printf.sprintf {|"event":"%s","job":%s,|} event id) text)))
        [ "dispatch"; "start"; "complete" ])
    ids;
  Alcotest.(check int) "closes" 1 (List.length (lines_with {|"type":"closed"|} text));
  List.iter Sys.remove [ input; out; err ]

(* A retiring serve forgets a settled job's slot but not its id: job 5,
   settled, then fed again at a later release, passes the (release, id)
   order check and must still be a bad arrival. *)
let test_serve_settled_id_refed () =
  let input = temp ".ndjson" and err = temp ".txt" in
  write_lines input
    [
      {|{"job": 5, "release": 0.0, "sizes": [1.0, 1.0]}|};
      {|{"job": 5, "release": 10.0, "sizes": [1.0, 1.0]}|};
    ];
  let code = shell (Printf.sprintf "%s serve -m 2 --input %s > /dev/null 2> %s" exe input err) in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "stderr"
    "rejsched: bad arrival: Flat_state.add_job: job 5 already added\n" (read_file err);
  Sys.remove input;
  Sys.remove err

(* serve-smoke's values are dyadic (0.5, 2.25, ...), so they never need
   more than 12 digits.  snapshots/serve-nondyadic.ndjson is 200 arrivals
   on 3 machines with releases and weights like k/10 and sizes like k/7,
   overloaded enough that flow-reject rejects 51 of them, 12 mid-run:
   its decisions, [remaining] volumes and closing totals print in the
   17-digit form about as often as in the 12-digit one (478 and 430
   values).  The expected stdout was written by the %.12g/%.17g printf
   formatter. *)
let test_serve_nondyadic () =
  let out = temp ".out" in
  let code =
    shell
      (Printf.sprintf "%s serve -p flow-reject -m 3 --batch 1 --input %s > %s" exe
         (Filename.concat (Test_util.data_dir "snapshots") "serve-nondyadic.ndjson")
         out)
  in
  Alcotest.(check int) "exit code" 0 code;
  let text = read_file out in
  Sys.remove out;
  Alcotest.(check string) "stdout matches snapshots/serve-nondyadic.expected"
    (read_file (Filename.concat (Test_util.data_dir "snapshots") "serve-nondyadic.expected"))
    text

(* An optional field that is present must be a number: a string or a
   null weight or deadline is a bad arrival, not the default. *)
let test_serve_non_number_optional_rejected () =
  List.iter
    (fun (line, field) ->
      let input = temp ".ndjson" and err = temp ".txt" in
      write_lines input [ line ];
      let code =
        shell (Printf.sprintf "%s serve -m 2 --input %s > /dev/null 2> %s" exe input err)
      in
      Alcotest.(check int) (line ^ " exit code") 1 code;
      Alcotest.(check string) (line ^ " stderr")
        (Printf.sprintf "rejsched: bad arrival: \"%s\" must be a number\n" field)
        (read_file err);
      Sys.remove input;
      Sys.remove err)
    [
      ({|{"job":0,"release":0,"sizes":[1,2],"weight":"5"}|}, "weight");
      ({|{"job":0,"release":0,"sizes":[1,2],"weight":null}|}, "weight");
      ({|{"job":0,"release":0,"sizes":[1,2],"deadline":"4"}|}, "deadline");
      ({|{"job":0,"release":0,"sizes":[1,2],"deadline":null}|}, "deadline");
      ({|{"job":0,"release":0,"sizes":[1,2],"weight":[1]}|}, "weight");
    ]

(* A file that cannot be opened or created is a usage error: exit 2 with
   the path on stderr, not an uncaught exception. *)
let test_unopenable_files_exit_2 () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "rejsched-no-such-dir" in
  let x = Filename.concat missing "x" in
  List.iter
    (fun args ->
      let err = temp ".txt" in
      let code = shell (Printf.sprintf "%s %s < /dev/null > /dev/null 2> %s" exe args err) in
      let text = read_file err in
      Alcotest.(check int) (args ^ " exit code") 2 code;
      Alcotest.(check bool) (args ^ " names the path") true (Test_util.contains text missing);
      Alcotest.(check bool) (args ^ " no uncaught exception") false
        (Test_util.contains text "Fatal error");
      Sys.remove err)
    [
      "serve --input " ^ x;
      "serve --restore " ^ x;
      "serve -m 1 --checkpoint " ^ x;
      "run -n 5 --trace-ndjson " ^ x;
    ]

let test_experiment_domains_identical () =
  (* e1 replicates over seeds on the ambient pool, so --domains actually
     changes the execution width — output must not change with it. *)
  let out1 = temp ".csv" and out2 = temp ".csv" in
  let run d out =
    shell (Printf.sprintf "%s experiment e1 --quick --csv --domains %d > %s" exe d out)
  in
  Alcotest.(check int) "exit at domains=1" 0 (run 1 out1);
  Alcotest.(check int) "exit at domains=3" 0 (run 3 out2);
  Alcotest.(check string) "byte-identical tables" (read_file out1) (read_file out2);
  Sys.remove out1;
  Sys.remove out2

let test_domains_zero_rejected () =
  let err = temp ".txt" in
  let code =
    shell (Printf.sprintf "%s experiment e1 --quick --domains 0 > /dev/null 2> %s" exe err)
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "message on stderr" true
    (Test_util.contains (read_file err) "--domains");
  Sys.remove err

let test_domains_negative_rejected () =
  let err = temp ".txt" in
  let code =
    shell (Printf.sprintf "%s experiment e1 --quick --domains=-2 > /dev/null 2> %s" exe err)
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "message on stderr" true
    (Test_util.contains (read_file err) "--domains");
  Sys.remove err

(* Command-line parse errors are usage errors: exit 2 with the offending
   flag named on stderr.  [args] starts with the subcommand. *)
let check_parse_errors cases =
  List.iter
    (fun (args, flag) ->
      let err = temp ".txt" in
      let code = shell (Printf.sprintf "%s %s < /dev/null > /dev/null 2> %s" exe args err) in
      Alcotest.(check int) (args ^ " exit code") 2 code;
      Alcotest.(check bool) (args ^ " names " ^ flag ^ " on stderr") true
        (Test_util.contains (read_file err) flag);
      Sys.remove err)
    cases

(* The removed flags are spelled through [long] so no live source line
   mentions them. *)
let test_removed_flags_exit_2 () =
  let long name = "--" ^ name in
  check_parse_errors
    [
      ("run " ^ long "shards" ^ " 4", long "shards");
      ("run " ^ long "no-flat", long "no-flat");
      ("serve " ^ long "retire", long "retire");
      ("experiment " ^ long "all", long "all");
    ]

let test_ill_typed_value_exits_2 () = check_parse_errors [ ("run -n abc", "-n") ]

(* speed-augmented runs Rule 1 on a 1.5-speed fleet; on this seed it
   rejects a job within Time's tolerance of its start, which the driver
   records as not running.  run's stream check compares that instant
   through the same tolerance, so the run exits 0. *)
(* An out-of-range --eps or --alpha is a usage error before any row of
   the table is printed. *)
let test_bounds_bad_args_print_nothing () =
  List.iter
    (fun (args, flag) ->
      let out = temp ".txt" and err = temp ".txt" in
      Alcotest.(check int) (args ^ " exits 2") 2
        (shell (Printf.sprintf "%s bounds %s > %s 2> %s" exe args out err));
      Alcotest.(check string) (args ^ " prints nothing") "" (read_file out);
      Alcotest.(check bool) ("message names " ^ flag) true
        (Test_util.contains (read_file err) flag);
      Sys.remove out;
      Sys.remove err)
    [ ("--eps 0", "--eps"); ("--eps 1", "--eps"); ("--alpha 1", "--alpha") ]

(* A negative --last is a usage error before the replay: no export is
   written. *)
let test_trace_negative_last_rejected () =
  let ndjson = temp ".ndjson" and err = temp ".txt" in
  Sys.remove ndjson;
  Alcotest.(check int) "exit code" 2
    (shell
       (Printf.sprintf
          "%s trace -n 10 -m 2 --last=-3 --out-ndjson %s --out-chrome - > /dev/null 2> %s" exe
          ndjson err));
  Alcotest.(check bool) "no export written" false (Sys.file_exists ndjson);
  Alcotest.(check bool) "message names --last" true (Test_util.contains (read_file err) "--last");
  Sys.remove err

let test_run_esa_rejection_at_start () =
  Alcotest.(check int) "run -p esa -w bimodal -n 2000 -m 4 --seed 4 exits 0" 0
    (shell (Printf.sprintf "%s run -p esa -w bimodal -n 2000 -m 4 --seed 4 > /dev/null" exe))

let suite =
  [
    Alcotest.test_case "unknown policy exits 2" `Quick test_unknown_policy_exits_2;
    Alcotest.test_case "experiment output independent of --domains" `Slow
      test_experiment_domains_identical;
    Alcotest.test_case "--domains 0 rejected" `Quick test_domains_zero_rejected;
    Alcotest.test_case "--domains negative rejected" `Quick test_domains_negative_rejected;
    Alcotest.test_case "removed driver flags exit 2" `Quick test_removed_flags_exit_2;
    Alcotest.test_case "ill-typed flag value exits 2" `Quick test_ill_typed_value_exits_2;
    Alcotest.test_case "telemetry counters reconcile" `Quick test_telemetry_reconciles_with_metrics;
    Alcotest.test_case "telemetry to stdout" `Quick test_telemetry_stdout;
    Alcotest.test_case "trace ndjson matches in-process" `Quick test_trace_ndjson_matches_in_process;
    Alcotest.test_case "trace subcommand replays a corpus case" `Quick test_trace_subcommand_case;
    Alcotest.test_case "trace subcommand to stdout" `Quick test_trace_subcommand_stdout;
    Alcotest.test_case "trace --ring-cap 0 rejected" `Quick test_trace_ring_cap_rejected;
    Alcotest.test_case "serve smoke: schema-tagged decision stream" `Quick test_serve_smoke;
    Alcotest.test_case "serve checkpoint/restore splices byte-identically" `Quick
      test_serve_checkpoint_restore_identical;
    Alcotest.test_case "serve --checkpoint - owns stdout" `Quick test_serve_checkpoint_stdout;
    Alcotest.test_case "serve live feed flushes each batch" `Quick test_serve_live_feed_flushes;
    Alcotest.test_case "serve --batch 0/negative rejected" `Quick test_serve_invalid_batch_rejected;
    Alcotest.test_case "serve --restore corrupt snapshot exits 2" `Quick
      test_serve_corrupt_snapshot_rejected;
    Alcotest.test_case "serve malformed arrival exits 1" `Quick
      test_serve_malformed_arrival_rejected;
    Alcotest.test_case "serve sparse job ids close" `Quick test_serve_sparse_ids_close;
    Alcotest.test_case "serve ids up to 10^15" `Quick test_serve_huge_ids;
    Alcotest.test_case "serve settled id fed again exits 1" `Quick test_serve_settled_id_refed;
    Alcotest.test_case "unopenable files exit 2" `Quick test_unopenable_files_exit_2;
    Alcotest.test_case "serve non-dyadic stream matches its golden" `Quick test_serve_nondyadic;
    Alcotest.test_case "serve non-number weight/deadline exits 1" `Quick
      test_serve_non_number_optional_rejected;
    Alcotest.test_case "unknown --sizes exits 2" `Quick test_unknown_sizes_exits_2;
    Alcotest.test_case "unknown experiment exits 2" `Quick test_unknown_experiment_exits_2;
    Alcotest.test_case "unknown adversary game exits 2" `Quick test_unknown_game_exits_2;
    Alcotest.test_case "every listed policy runs, serves and traces" `Quick
      test_list_names_accepted;
    Alcotest.test_case "run alias = its registry entry" `Quick test_run_alias_matches_canonical;
    Alcotest.test_case "serve alias reports the registry name" `Quick
      test_serve_alias_reports_name;
    Alcotest.test_case "run checks restart-spt with restarts allowed" `Quick
      test_run_restart_spt_checked_with_restarts;
    Alcotest.test_case "run rejects --eps outside (0,1) before writing" `Quick
      test_run_bad_eps_fails_fast;
    Alcotest.test_case "run -p esa rejecting at a start's instant exits 0" `Quick
      test_run_esa_rejection_at_start;
    Alcotest.test_case "bounds rejects --eps/--alpha before printing" `Quick
      test_bounds_bad_args_print_nothing;
    Alcotest.test_case "trace --last negative rejected" `Quick test_trace_negative_last_rejected;
  ]
