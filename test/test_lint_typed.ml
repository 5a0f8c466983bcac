(* Tests for rejlint's typed tier (lib/analysis/typed/).

   The fixtures live in test/lint_fixtures/typed/ as .ml sources; the
   dune rules there compile each one with [ocamlc -bin-annot], so the
   .cmt files the tests load go through exactly the loader path
   dune-built units take.  Each RJL1xx rule gets violating and clean
   fixtures; two meta-tests then turn the tier on the repository itself:
   the tree must be typed-clean, and the flat core's [@rejlint.hot]
   annotations must still be present (deleting one is a silent loss of
   the static zero-alloc proof, so the guard fails loudly). *)

module RL = Rejlint_lib

let fixture_base = Filename.concat (Test_util.data_dir "lint_fixtures") "typed"

let fixture name = Filename.concat fixture_base name

let lib_scope =
  match RL.Scope.of_string "lib" with
  | Some s -> s
  | None -> failwith "lib scope unavailable"

let lint name = RL.Typed_lint.lint_cmts ~scope:lib_scope [ fixture name ]
let rules findings = List.map (fun f -> RL.Rule.to_string f.RL.Finding.rule) findings
let lines findings = List.map (fun f -> f.RL.Finding.line) findings

let check_rule rule findings =
  List.iter
    (fun f ->
      Alcotest.(check string)
        "rule" (RL.Rule.to_string rule)
        (RL.Rule.to_string f.RL.Finding.rule))
    findings

(* --- RJL100: alias-proof banned paths ---------------------------------- *)

let test_rjl100_bad () =
  let fs = lint "rjl100_bad.cmt" in
  Alcotest.(check int) "findings" 3 (List.length fs);
  check_rule RL.Rule.Typed_nondet fs;
  Alcotest.(check (list int)) "lines" [ 14; 15; 19 ] (lines fs);
  (* The messages carry both spellings: what the source wrote and what
     it resolves to. *)
  match fs with
  | f :: _ ->
      Alcotest.(check bool) "resolved path" true
        (Test_util.contains f.RL.Finding.message "Random.self_init");
      Alcotest.(check bool) "written path" true
        (Test_util.contains f.RL.Finding.message "R.self_init")
  | [] -> Alcotest.fail "expected findings"

let test_rjl100_ok () =
  (* Benign aliases are silent, and so is a direct banned call — that
     one belongs to the syntactic tier, not to RJL100. *)
  Alcotest.(check (list string)) "clean" [] (rules (lint "rjl100_ok.cmt"))

(* --- RJL101: type-aware polymorphic comparison ------------------------- *)

let test_rjl101_bad () =
  let fs = lint "rjl101_bad.cmt" in
  Alcotest.(check int) "findings" 3 (List.length fs);
  check_rule RL.Rule.Typed_poly_compare fs;
  Alcotest.(check (list int)) "lines" [ 7; 8; 9 ] (lines fs)

let test_rjl101_ok () =
  (* Constant constructors, safe atomics, primitive float ordering and
     Float.compare all pass. *)
  Alcotest.(check (list string)) "clean" [] (rules (lint "rjl101_ok.cmt"))

(* --- RJL102: policy purity --------------------------------------------- *)

let test_rjl102_bad () =
  let fs = lint "rjl102_bad.cmt" in
  Alcotest.(check int) "findings" 2 (List.length fs);
  check_rule RL.Rule.Policy_purity fs;
  (* One finding is the transitive mutable-toplevel reach, with its call
     chain spelled out; the other is the direct Random hazard. *)
  let msgs = String.concat "\n" (List.map (fun f -> f.RL.Finding.message) fs) in
  Alcotest.(check bool) "mutable reach" true (Test_util.contains msgs "mutable toplevel");
  Alcotest.(check bool) "chain" true (Test_util.contains msgs "Policy_registry.pack ->");
  Alcotest.(check bool) "random hazard" true (Test_util.contains msgs "Random")

let test_rjl102_ok () =
  (* A mutable toplevel the registry never reaches is not a violation. *)
  Alcotest.(check (list string)) "clean" [] (rules (lint "rjl102_ok.cmt"))

(* --- RJL103: static zero-alloc for hot functions ----------------------- *)

let test_rjl103_bad () =
  let fs = lint "rjl103_bad.cmt" in
  Alcotest.(check int) "findings" 6 (List.length fs);
  check_rule RL.Rule.Hot_alloc fs;
  let msgs = String.concat "\n" (List.map (fun f -> f.RL.Finding.message) fs) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (Test_util.contains msgs needle))
    [
      "tuple allocation";
      "constructor allocation (Some)";
      "float arithmetic in return position";
      "closure allocation";
      "Float.max (an out-of-line caml_signbit call)";
      "Float.min (an out-of-line caml_signbit call)";
    ]

let test_rjl103_ok () =
  (* Stored-float reads, in-place arithmetic and [@rejlint.cold]
     branches are the allocation-free idiom the flat core uses. *)
  Alcotest.(check (list string)) "clean" [] (rules (lint "rjl103_ok.cmt"))

(* --- RJL104: test-only exports ------------------------------------------ *)

(* The fixture tree mirrors a repository: lib/ holds the exporting units
   and a lib/ caller, test/ a test caller; each unit records its source
   under that prefix, which is what the rule reads. *)
let rjl104 ?(with_lib_caller = true) () =
  let cmts =
    [ "lib/rjl104_bad.cmt"; "lib/rjl104_allow.cmt"; "lib/rjl104_ord.cmt"; "test/rjl104_caller.cmt" ]
    @ if with_lib_caller then [ "lib/rjl104_user.cmt" ] else []
  in
  let buf = Buffer.create 256 in
  let code =
    RL.Driver.run ~out:(Buffer.add_string buf) ("--root" :: fixture "rjl104" :: cmts)
  in
  let report = String.split_on_char '\n' (Buffer.contents buf) in
  (code, List.filter (fun l -> Test_util.contains l "[error]") report, Buffer.contents buf)

let test_rjl104 () =
  let code, errors, out = rjl104 () in
  Alcotest.(check int) "exit" 1 code;
  (* The test-only value fires; the same value with an allow comment
     does not. *)
  Alcotest.(check (list string)) "one finding"
    [
      "lib/rjl104_bad.mli:4:0: [error] test-only-export (RJL104): exported value \
       Rjl104_bad.test_only is used only by tests (test/rjl104_caller.ml)";
    ]
    errors;
  (* An allow comment on a value lib/ calls is stale. *)
  Alcotest.(check bool) "stale allow" true
    (Test_util.contains out "lib/rjl104_allow.mli:7:0: [warning] stale-suppress (RJL009)")

let test_rjl104_no_lib_caller () =
  (* Without the lib/ caller, the value only the functor argument
     reached has no caller at all, and the one the tests share with lib/
     is test-only too. *)
  let _, errors, _ = rjl104 ~with_lib_caller:false () in
  Alcotest.(check int) "three findings" 3 (List.length errors);
  Alcotest.(check bool) "no caller" true
    (List.exists
       (fun l ->
         Test_util.contains l "Rjl104_ord.compare has no caller outside its own module")
       errors)

(* --- the repository under the typed tier ------------------------------- *)

let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project")
       && Sys.is_directory (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

(* The tests run from _build/default/test, so the repo root found above
   is _build/default — which is itself the cmt root for the tree. *)
let cmt_root () =
  match repo_root () with
  | None -> Alcotest.fail "could not locate repository root from cwd"
  | Some root ->
      if Sys.is_directory (Filename.concat root "_build") then
        Filename.concat root (Filename.concat "_build" "default")
      else root

let test_repo_is_typed_clean () =
  match RL.Typed_lint.run ~cmt_dir:(cmt_root ()) () with
  | Error msg -> Alcotest.failf "typed tier found no cmts: %s" msg
  | Ok r ->
      Alcotest.(check bool) "units loaded" true (r.RL.Typed_lint.units > 50);
      let errors =
        List.filter (fun f -> f.RL.Finding.severity = RL.Rule.Error) r.RL.Typed_lint.findings
      in
      (* Any expected reach is suppressed in the source; everything
         else must be clean. *)
      let unsuppressed =
        List.filter
          (fun (f : RL.Finding.t) ->
            (* The build tree mirrors the sources, comments included. *)
            let src = Filename.concat (cmt_root ()) f.file in
            not (Sys.file_exists src)
            ||
            let ic = open_in_bin src in
            let len = in_channel_length ic in
            let text = really_input_string ic len in
            close_in ic;
            RL.Suppress.filter (RL.Suppress.scan text) [ f ] <> [])
          errors
      in
      if unsuppressed <> [] then
        Alcotest.failf "repository is not typed-clean:\n%s"
          (String.concat "\n" (List.map RL.Finding.to_human unsuppressed))

let test_hot_annotations_guarded () =
  (* Removing [@rejlint.hot] from the flat core would silently drop the
     static proof; pin the annotated set. *)
  let root = cmt_root () in
  let cmt sub = Filename.concat root sub in
  let driver_hot =
    RL.Typed_lint.hot_functions_of_cmt
      (cmt "lib/sim/.sched_sim.objs/byte/sched_sim__Driver.cmt")
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("driver hot: " ^ name) true (List.mem name driver_hot))
    [ "loop"; "try_start"; "reject_job"; "restart_job"; "commit_arrival"; "commit_finish";
      "slot"; "pending_split"; "pending_head_size" ];
  let flat_hot =
    RL.Typed_lint.hot_functions_of_cmt
      (cmt "lib/sim/.sched_sim.objs/byte/sched_sim__Flat_state.cmt")
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("flat_state hot: " ^ name) true (List.mem name flat_hot))
    [ "clock"; "set_clock"; "pend_add"; "pend_remove"; "next_event_before"; "lay_segment";
      "account_completion"; "account_rejection"; "outcome_completed"; "outcome_rejected";
      (* The pending sets' order-statistic index: insert, remove, the
         prefix query behind lambda_ij, and max. *)
      "prio"; "ix_fix"; "ix_insert"; "ix_merge"; "ix_remove"; "ix_split"; "ix_rightmost";
      "pend_split"; "index_max";
      (* The pending orders, which read the shared pending-size column,
         and the prefix query's probe, which reads the arrival's own
         size vector. *)
      "less_spt"; "less_density"; "less_size_id"; "less_fifo"; "before_release"; "before_probe";
      (* Slots: resolving an external id (the arrival by one comparison,
         any other through the id map), and handing a slot back. *)
      "slot_of"; "arrive"; "offer"; "settle"; "above"; "find"; "probe"; "remove"; "shift";
      (* The pending-head column flow-reject's dispatch scan bounds with:
         its maintenance in [pend_add]/[pend_remove] and its read. *)
      "set_head"; "pend_head" ];
  Alcotest.(check bool) "flat_state hot coverage >= 25" true (List.length flat_hot >= 25);
  (* The recorder's whole write path must stay inside the static proof:
     un-annotating any of these drops RJL103 coverage exactly where an
     allocation would silently re-inflate the words-per-event floor. *)
  let ring_hot =
    RL.Typed_lint.hot_functions_of_cmt
      (cmt "lib/obs/.sched_obs.objs/byte/sched_obs__Ring.cmt")
  in
  List.iter
    (fun name -> Alcotest.(check bool) ("ring hot: " ^ name) true (List.mem name ring_hot))
    [ "append" ];
  let recorder_hot =
    RL.Typed_lint.hot_functions_of_cmt
      (cmt "lib/obs/.sched_obs.objs/byte/sched_obs__Recorder.cmt")
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("recorder hot: " ^ name) true (List.mem name recorder_hot))
    [ "reserve"; "reserve_dispatch"; "reserve_start"; "reserve_complete"; "reserve_reject";
      "reserve_restart" ]

let suite =
  [
    Alcotest.test_case "rjl100: aliases and functors fire" `Quick test_rjl100_bad;
    Alcotest.test_case "rjl100: clean fixture" `Quick test_rjl100_ok;
    Alcotest.test_case "rjl101: typed poly-compare fires" `Quick test_rjl101_bad;
    Alcotest.test_case "rjl101: clean fixture" `Quick test_rjl101_ok;
    Alcotest.test_case "rjl102: impure registry fires" `Quick test_rjl102_bad;
    Alcotest.test_case "rjl102: pure registry clean" `Quick test_rjl102_ok;
    Alcotest.test_case "rjl103: boxed hot loop fires" `Quick test_rjl103_bad;
    Alcotest.test_case "rjl103: flat-core idiom clean" `Quick test_rjl103_ok;
    Alcotest.test_case "rjl104: test-only export fires" `Quick test_rjl104;
    Alcotest.test_case "rjl104: functor use and no caller" `Quick test_rjl104_no_lib_caller;
    Alcotest.test_case "meta: repository is typed-clean" `Quick test_repo_is_typed_clean;
    Alcotest.test_case "meta: hot annotations guarded" `Quick test_hot_annotations_guarded;
  ]
