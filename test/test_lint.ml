(* Tests for rejlint, the static determinism linter (lib/analysis/).

   The per-rule fixtures live in test/lint_fixtures/ — one violating, one
   clean and one suppressed file per rule family — and are linted here
   under a forced scope, exactly as `rejlint --scope <s>` would.  A final
   meta-test runs the full driver over the repository itself and demands
   a clean bill of health: the tree must satisfy its own linter. *)

module RL = Rejlint_lib

let scope name =
  match RL.Scope.of_string name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scope %S" name

(* dune runtest runs with cwd _build/default/test; a direct
   `dune exec test/test_main.exe` from the repo root must find the same
   fixture tree (with its built .cmt files) inside _build. *)
let fixture_base =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else
    Filename.concat
      (Filename.concat "_build" "default")
      (Filename.concat "test" "lint_fixtures")

let fixture name = Filename.concat fixture_base name

let lint ?(scope_name = "lib") name =
  RL.Lint.lint_file ~check_mli:false ~scope:(scope scope_name) (fixture name)

let rules findings = List.map (fun f -> f.RL.Finding.rule) findings
let lines findings = List.map (fun f -> f.RL.Finding.line) findings

let check_all_rule rule findings =
  List.iter
    (fun f ->
      Alcotest.(check string)
        "rule" (RL.Rule.to_string rule)
        (RL.Rule.to_string f.RL.Finding.rule))
    findings

(* --- per-rule fixtures ------------------------------------------------- *)

let test_nondet_bad () =
  let fs = lint "nondet_bad.ml" in
  Alcotest.(check int) "findings" 6 (List.length fs);
  check_all_rule RL.Rule.Nondet_source fs;
  Alcotest.(check (list int)) "lines" [ 4; 5; 6; 7; 8; 9 ] (lines fs)

let test_nondet_ok () =
  Alcotest.(check int) "clean" 0 (List.length (lint "nondet_ok.ml"))

let test_nondet_allow () =
  Alcotest.(check int) "suppressed" 0 (List.length (lint "nondet_allow.ml"))

let test_polycmp_bad () =
  let fs = lint "polycmp_bad.ml" in
  Alcotest.(check int) "findings" 6 (List.length fs);
  check_all_rule RL.Rule.Poly_compare fs

let test_polycmp_ok () =
  Alcotest.(check int) "clean" 0 (List.length (lint "polycmp_ok.ml"))

let test_polycmp_allow () =
  Alcotest.(check int) "suppressed" 0 (List.length (lint "polycmp_allow.ml"))

let test_polycmp_heap_bad () =
  let fs = lint "polycmp_heap_bad.ml" in
  Alcotest.(check int) "findings" 4 (List.length fs);
  check_all_rule RL.Rule.Poly_compare fs

let test_polycmp_heap_ok () =
  Alcotest.(check int) "clean" 0 (List.length (lint "polycmp_heap_ok.ml"))

let test_polycmp_heap_allow () =
  Alcotest.(check int) "suppressed" 0 (List.length (lint "polycmp_heap_allow.ml"))

let test_unstable_bad () =
  let fs = lint "unstable_bad.ml" in
  Alcotest.(check int) "findings" 1 (List.length fs);
  check_all_rule RL.Rule.Unstable_sort fs;
  Alcotest.(check (list int)) "line" [ 7 ] (lines fs)

let test_unstable_ok () =
  Alcotest.(check int) "clean" 0 (List.length (lint "unstable_ok.ml"))

let test_unstable_allow () =
  Alcotest.(check int) "suppressed" 0 (List.length (lint "unstable_allow.ml"))

let test_mutable_bad () =
  let fs = lint ~scope_name:"policy" "mutable_bad.ml" in
  Alcotest.(check int) "findings" 5 (List.length fs);
  check_all_rule RL.Rule.Global_mutable fs

let test_mutable_needs_policy_scope () =
  (* Plain lib/ scope tolerates toplevel state; only policy modules ban it. *)
  Alcotest.(check int) "lib scope" 0 (List.length (lint "mutable_bad.ml"))

let test_mutable_ok () =
  Alcotest.(check int) "clean" 0 (List.length (lint ~scope_name:"policy" "mutable_ok.ml"))

let test_mutable_allow () =
  Alcotest.(check int) "suppressed" 0
    (List.length (lint ~scope_name:"policy" "mutable_allow.ml"))

let test_io_bad () =
  let fs = lint "io_bad.ml" in
  Alcotest.(check int) "findings" 7 (List.length fs);
  check_all_rule RL.Rule.Stray_io fs;
  Alcotest.(check (list int)) "lines" [ 3; 4; 5; 6; 7; 8; 9 ] (lines fs)

let test_io_ok_in_bin () =
  (* The same I/O is fine in bin/ and in the display modules. *)
  Alcotest.(check int) "bin scope" 0
    (List.length (lint ~scope_name:"bin" "io_bad.ml"));
  Alcotest.(check int) "display scope" 0
    (List.length (lint ~scope_name:"display" "io_bad.ml"))

let test_io_ok () = Alcotest.(check int) "clean" 0 (List.length (lint "io_ok.ml"))

let test_io_allow () =
  Alcotest.(check int) "suppressed" 0 (List.length (lint "io_allow.ml"))

let test_wallclock_bad () =
  let fs = lint "wallclock_bad.ml" in
  Alcotest.(check int) "findings" 3 (List.length fs);
  check_all_rule RL.Rule.Wall_clock fs;
  Alcotest.(check (list int)) "lines" [ 4; 5; 6 ] (lines fs)

let test_wallclock_ok () =
  Alcotest.(check int) "clean" 0 (List.length (lint "wallclock_ok.ml"))

let test_wallclock_allow () =
  Alcotest.(check int) "suppressed" 0 (List.length (lint "wallclock_allow.ml"))

let test_concurrency_bad () =
  let fs = lint "concurrency_bad.ml" in
  Alcotest.(check int) "findings" 9 (List.length fs);
  check_all_rule RL.Rule.Raw_concurrency fs

let test_concurrency_pool_scope () =
  (* The pool scope (lib/stats/pool.ml) is the one lib/ module allowed to
     spawn domains and hold locks. *)
  Alcotest.(check int) "pool scope" 0
    (List.length (lint ~scope_name:"pool" "concurrency_bad.ml"))

let test_concurrency_ok () =
  (* Domain.recommended_domain_count and Domain.DLS must NOT fire: they
     neither create domains nor synchronize between them. *)
  Alcotest.(check int) "clean" 0 (List.length (lint "concurrency_ok.ml"))

let test_concurrency_allow () =
  Alcotest.(check int) "suppressed" 0 (List.length (lint "concurrency_allow.ml"))

let test_pool_module_classified () =
  (* Path classification must allowlist exactly lib/stats/pool.ml. *)
  Alcotest.(check bool) "pool.ml" true (RL.Scope.pool (RL.Scope.classify "lib/stats/pool.ml"));
  Alcotest.(check bool) "shim" false (RL.Scope.pool (RL.Scope.classify "lib/stats/parallel.ml"));
  Alcotest.(check bool) "driver" false (RL.Scope.pool (RL.Scope.classify "lib/sim/driver.ml"))

let test_mli_coverage () =
  (* RJL006 is a directory-walk property: scan the mli/ fixture tree. *)
  let buf = Buffer.create 256 in
  let code =
    RL.Driver.run ~out:(Buffer.add_string buf)
      [ "--scope"; "lib"; "--root"; fixture_base; "mli" ]
  in
  let out = Buffer.contents buf in
  Alcotest.(check int) "exit" 1 code;
  Alcotest.(check bool) "orphan flagged" true (Test_util.contains out "orphan.ml");
  Alcotest.(check bool) "rule named" true (Test_util.contains out "missing-mli");
  Alcotest.(check bool) "covered clean" false (Test_util.contains out "covered.ml:");
  Alcotest.(check bool) "tolerated clean" false (Test_util.contains out "tolerated.ml:")

(* --- inline sources: edge cases the fixtures do not cover -------------- *)

let lint_src ?(scope_name = "lib") src =
  RL.Lint.lint_source ~scope:(scope scope_name) ~file:"inline.ml" src

let test_stdlib_prefix_normalized () =
  (* Stdlib.compare is the same bare polymorphic compare. *)
  let fs = lint_src "let f xs = List.sort Stdlib.compare xs\n" in
  Alcotest.(check (list string)) "rules" [ "poly-compare" ]
    (List.map RL.Rule.to_string (rules fs))

let test_named_comparator_trusted () =
  (* A named comparator is audited at its definition, not at every call. *)
  Alcotest.(check int) "named" 0
    (List.length (lint_src "let f cmp a = Array.sort cmp a\n"))

let test_tuple_key_is_tie_break () =
  (* Comparing whole tuple keys is a total order; only the polymorphic
     compare itself is flagged, not the sort. *)
  let fs =
    lint_src
      "type r = { a : int; b : int }\n\
       let f (xs : r array) = Array.sort (fun x y -> compare (x.a, x.b) (y.a, y.b)) xs\n"
  in
  Alcotest.(check (list string)) "rules" [ "poly-compare" ]
    (List.map RL.Rule.to_string (rules fs))

let test_parse_error () =
  let fs = lint_src "let = (\n" in
  Alcotest.(check (list string)) "rules" [ "parse-error" ]
    (List.map RL.Rule.to_string (rules fs))

let test_scope_gates_nondet () =
  (* Nondeterminism sources are banned in lib/, tolerated in test/. *)
  let src = "let p () = Unix.getpid ()\n" in
  Alcotest.(check int) "lib" 1 (List.length (lint_src src));
  Alcotest.(check int) "test" 0 (List.length (lint_src ~scope_name:"test" src))

let test_wallclock_beats_nondet () =
  (* Unix.gettimeofday is both a Unix.* nondet source and a wall-clock
     read; the more specific RJL007 wins. *)
  let fs = lint_src "let t () = Unix.gettimeofday ()\n" in
  Alcotest.(check (list string)) "rules" [ "wall-clock" ]
    (List.map RL.Rule.to_string (rules fs))

let test_io_applied_std_channels () =
  (* fprintf/output_string reach the console only through a std channel
     argument; the channel decides the verdict. *)
  let bad =
    "let a oc = Printf.fprintf stderr \"x\"\n\
     let b () = Format.fprintf Format.std_formatter \"x\"\n\
     let c () = output_char stdout 'x'\n"
  in
  let fs = lint_src bad in
  Alcotest.(check int) "std channels fire" 3 (List.length fs);
  check_all_rule RL.Rule.Stray_io fs;
  Alcotest.(check int) "caller's channel clean" 0
    (List.length (lint_src "let a oc = Printf.fprintf oc \"x\"\nlet b oc = output_char oc 'x'\n"))

(* --- suppression semantics -------------------------------------------- *)

let test_suppress_scope_lines () =
  (* The marker is split so rejlint's own line scan doesn't read this
     literal as a suppression entry in this file. *)
  let src =
    "(* rejlint" ^ ": allow nondet-source *)\n\
                    let a () = Random.self_init ()\n\
                    let b () = Random.self_init ()\n"
  in
  let sup = RL.Suppress.scan src in
  Alcotest.(check bool) "line below" true
    (RL.Suppress.active sup ~line:2 RL.Rule.Nondet_source);
  Alcotest.(check bool) "two below" false
    (RL.Suppress.active sup ~line:3 RL.Rule.Nondet_source);
  Alcotest.(check bool) "other rule" false
    (RL.Suppress.active sup ~line:2 RL.Rule.Stray_io);
  (* End to end: only the first violation is silenced. *)
  Alcotest.(check (list int)) "lines" [ 3 ] (lines (lint_src src))

let test_suppress_code_synonym () =
  let src = "let a () = Random.self_init () (* rejlint" ^ ": allow RJL001 *)\n" in
  Alcotest.(check int) "code synonym" 0 (List.length (lint_src src))

let test_suppress_all () =
  let src = "let a () = Sys.time () (* rejlint" ^ ": allow all *)\n" in
  Alcotest.(check int) "all" 0 (List.length (lint_src src))

let test_suppress_multiple_findings_one_line () =
  (* One trailing comment naming two rules silences both findings the
     line produces. *)
  let src =
    "let a () = (Random.self_init (), Sys.time ()) (* rejlint"
    ^ ": allow RJL001 RJL007 *)\n"
  in
  Alcotest.(check int) "both silenced" 0 (List.length (lint_src src));
  (* Naming only one of the two leaves the other standing. *)
  let partial =
    "let a () = (Random.self_init (), Sys.time ()) (* rejlint" ^ ": allow RJL001 *)\n"
  in
  Alcotest.(check (list string)) "other stands" [ "wall-clock" ]
    (List.map RL.Rule.to_string (rules (lint_src partial)))

let test_suppress_last_line_no_newline () =
  (* A suppression on the final line of a file with no trailing newline
     must still be scanned (the flush-at-EOF path). *)
  let src = "let a () = Sys.time () (* rejlint" ^ ": allow RJL007 *)" in
  Alcotest.(check int) "last line" 0 (List.length (lint_src src))

let test_suppress_crlf_source () =
  (* CRLF line endings: the \r must not break marker or token parsing,
     and line numbers must still line up. *)
  let src =
    "(* rejlint" ^ ": allow nondet-source *)\r\nlet a () = Random.self_init ()\r\n"
  in
  Alcotest.(check int) "crlf suppressed" 0 (List.length (lint_src src));
  let trailing =
    "let a () = Random.self_init () (* rejlint" ^ ": allow RJL001 *)\r\nlet b () = Sys.time ()\r\n"
  in
  Alcotest.(check (list string)) "crlf line numbers" [ "wall-clock" ]
    (List.map RL.Rule.to_string (rules (lint_src trailing)))

(* --- stale suppressions (RJL009) --------------------------------------- *)

let mk_finding ?(rule = RL.Rule.Nondet_source) ?(severity = RL.Rule.Error)
    ?(file = "inline.ml") ?(line = 1) ?(col = 0) msg =
  RL.Finding.make ~rule ~severity ~file ~line ~col msg

let scan_one src = RL.Suppress.scan src

let test_stale_suppress_fires () =
  let t = scan_one ("let id x = x (* rejlint" ^ ": allow RJL001 *)\n") in
  match RL.Suppress.unused t ~typed_ran:false [] with
  | [ (1, msg) ] ->
      Alcotest.(check bool) "message names entry" true (Test_util.contains msg "allow RJL001")
  | _ -> Alcotest.fail "expected one stale entry"

let test_stale_suppress_used_entry_quiet () =
  let t = scan_one ("let a () = Random.self_init () (* rejlint" ^ ": allow RJL001 *)\n") in
  let fs = [ mk_finding ~line:1 "x" ] in
  Alcotest.(check int) "used entry" 0 (List.length (RL.Suppress.unused t ~typed_ran:false fs));
  (* The line-below form is also a use. *)
  let below = scan_one ("(* rejlint" ^ ": allow RJL001 *)\nlet a () = Random.self_init ()\n") in
  let fs = [ mk_finding ~line:2 "x" ] in
  Alcotest.(check int) "line below" 0 (List.length (RL.Suppress.unused below ~typed_ran:false fs))

let test_stale_suppress_tier_gating () =
  (* A typed-rule suppression cannot be judged by a syntactic-only run:
     the findings it might match were never computed. *)
  let t = scan_one ("let f x = x (* rejlint" ^ ": allow hot-alloc *)\n") in
  Alcotest.(check int) "typed rule gated" 0
    (List.length (RL.Suppress.unused t ~typed_ran:false []));
  Alcotest.(check int) "typed run judges it" 1
    (List.length (RL.Suppress.unused t ~typed_ran:true []));
  (* [allow all] spans both tiers, so only a full run can call it stale. *)
  let all = scan_one ("let f x = x (* rejlint" ^ ": allow all *)\n") in
  Alcotest.(check int) "all gated" 0 (List.length (RL.Suppress.unused all ~typed_ran:false []));
  Alcotest.(check int) "all judged" 1 (List.length (RL.Suppress.unused all ~typed_ran:true []))

let test_stale_suppress_driver_warns () =
  (* End to end: a stale entry surfaces as a warning finding — reported,
     but not an error exit. *)
  let buf = Buffer.create 256 in
  let code =
    RL.Driver.run ~out:(Buffer.add_string buf) [ "--scope"; "lib"; fixture "stale_allow.ml" ]
  in
  let out = Buffer.contents buf in
  Alcotest.(check int) "warning exit" 0 code;
  Alcotest.(check bool) "RJL009 reported" true (Test_util.contains out "RJL009");
  Alcotest.(check bool) "is a warning" true (Test_util.contains out "[warning]")

(* --- report ordering --------------------------------------------------- *)

let test_finding_order_total () =
  (* The report order is a pinned total order: file, line, column, rule
     (catalog position), severity (errors first), message. *)
  let f ?rule ?severity ?file ?line ?col msg = mk_finding ?rule ?severity ?file ?line ?col msg in
  let expected =
    [
      f ~file:"a.ml" ~line:2 ~col:0 "x";
      f ~file:"b.ml" ~line:1 ~col:0 "x";
      f ~file:"b.ml" ~line:1 ~col:4 ~rule:RL.Rule.Stray_io "x";
      f ~file:"b.ml" ~line:1 ~col:9 ~rule:RL.Rule.Poly_compare "x";
      f ~file:"b.ml" ~line:1 ~col:9 ~rule:RL.Rule.Stray_io ~severity:RL.Rule.Error "x";
      f ~file:"b.ml" ~line:1 ~col:9 ~rule:RL.Rule.Stray_io ~severity:RL.Rule.Warning "x";
      f ~file:"b.ml" ~line:1 ~col:9 ~rule:RL.Rule.Stale_suppress "a then";
      f ~file:"b.ml" ~line:1 ~col:9 ~rule:RL.Rule.Stale_suppress "b after";
      f ~file:"b.ml" ~line:3 ~col:0 "x";
    ]
  in
  (* A deterministic scramble (reverse + interleave) must sort back. *)
  let scrambled =
    let rec weave a b =
      match (a, b) with
      | [], r | r, [] -> r
      | x :: xs, y :: ys -> x :: y :: weave xs ys
    in
    let rev = List.rev expected in
    weave rev (List.rev rev)
  in
  let sorted = List.sort_uniq RL.Finding.order scrambled in
  let show fs = String.concat "\n" (List.map RL.Finding.to_human fs) in
  Alcotest.(check string) "golden order" (show expected) (show sorted)

(* --- rule catalog and report formats ----------------------------------- *)

let test_rule_roundtrip () =
  List.iter
    (fun id ->
      let name = RL.Rule.to_string id and code = RL.Rule.code id in
      Alcotest.(check bool) ("name " ^ name) true (RL.Rule.of_string name = Some id);
      Alcotest.(check bool) ("code " ^ code) true (RL.Rule.of_string code = Some id))
    RL.Rule.all;
  let codes = List.map RL.Rule.code RL.Rule.all in
  Alcotest.(check int) "codes unique"
    (List.length codes)
    (List.length (List.sort_uniq String.compare codes))

let test_human_format () =
  match lint "nondet_bad.ml" with
  | f :: _ ->
      let line = RL.Finding.to_human f in
      Alcotest.(check bool) "location" true
        (Test_util.contains line "nondet_bad.ml:4:");
      Alcotest.(check bool) "code" true (Test_util.contains line "RJL001")
  | [] -> Alcotest.fail "expected findings"

let test_driver_json () =
  let buf = Buffer.create 256 in
  let code =
    RL.Driver.run ~out:(Buffer.add_string buf)
      [ "--json"; "--scope"; "lib"; fixture "nondet_bad.ml" ]
  in
  let out = Buffer.contents buf in
  Alcotest.(check int) "exit" 1 code;
  Alcotest.(check bool) "version" true (Test_util.contains out "\"version\":1");
  Alcotest.(check bool) "rule" true
    (Test_util.contains out "\"rule\":\"nondet-source\"");
  Alcotest.(check bool) "line" true (Test_util.contains out "\"line\":4");
  Alcotest.(check bool) "errors" true (Test_util.contains out "\"errors\":6")

let test_driver_clean_exit () =
  let buf = Buffer.create 256 in
  let code =
    RL.Driver.run ~out:(Buffer.add_string buf)
      [ "--scope"; "lib"; fixture "io_ok.ml" ]
  in
  Alcotest.(check int) "exit" 0 code

let test_driver_usage_error () =
  let code = RL.Driver.run ~out:ignore [ "--scope"; "no-such-scope" ] in
  Alcotest.(check int) "exit" 2 code

(* --- the repository lints itself --------------------------------------- *)

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

let test_repo_is_clean () =
  match repo_root () with
  | None -> Alcotest.fail "could not locate repository root from cwd"
  | Some root ->
      let buf = Buffer.create 1024 in
      let code = RL.Driver.run ~out:(Buffer.add_string buf) [ "--root"; root ] in
      if code <> 0 then
        Alcotest.failf "repository is not lint-clean:\n%s" (Buffer.contents buf)

let suite =
  [
    Alcotest.test_case "nondet: fixture fires" `Quick test_nondet_bad;
    Alcotest.test_case "nondet: clean fixture" `Quick test_nondet_ok;
    Alcotest.test_case "nondet: suppressed fixture" `Quick test_nondet_allow;
    Alcotest.test_case "polycmp: fixture fires" `Quick test_polycmp_bad;
    Alcotest.test_case "polycmp: clean fixture" `Quick test_polycmp_ok;
    Alcotest.test_case "polycmp: suppressed fixture" `Quick test_polycmp_allow;
    Alcotest.test_case "polycmp: heap comparator fires" `Quick test_polycmp_heap_bad;
    Alcotest.test_case "polycmp: clean heap comparator" `Quick test_polycmp_heap_ok;
    Alcotest.test_case "polycmp: suppressed heap comparator" `Quick test_polycmp_heap_allow;
    Alcotest.test_case "unstable: fixture fires" `Quick test_unstable_bad;
    Alcotest.test_case "unstable: clean fixture" `Quick test_unstable_ok;
    Alcotest.test_case "unstable: suppressed fixture" `Quick test_unstable_allow;
    Alcotest.test_case "mutable: fixture fires" `Quick test_mutable_bad;
    Alcotest.test_case "mutable: policy scope only" `Quick test_mutable_needs_policy_scope;
    Alcotest.test_case "mutable: clean fixture" `Quick test_mutable_ok;
    Alcotest.test_case "mutable: suppressed fixture" `Quick test_mutable_allow;
    Alcotest.test_case "io: fixture fires" `Quick test_io_bad;
    Alcotest.test_case "io: allowed in bin/display" `Quick test_io_ok_in_bin;
    Alcotest.test_case "io: clean fixture" `Quick test_io_ok;
    Alcotest.test_case "io: suppressed fixture" `Quick test_io_allow;
    Alcotest.test_case "wallclock: fixture fires" `Quick test_wallclock_bad;
    Alcotest.test_case "wallclock: clean fixture" `Quick test_wallclock_ok;
    Alcotest.test_case "wallclock: suppressed fixture" `Quick test_wallclock_allow;
    Alcotest.test_case "wallclock: more specific than nondet" `Quick test_wallclock_beats_nondet;
    Alcotest.test_case "concurrency: fixture fires" `Quick test_concurrency_bad;
    Alcotest.test_case "concurrency: pool scope exempt" `Quick test_concurrency_pool_scope;
    Alcotest.test_case "concurrency: clean fixture" `Quick test_concurrency_ok;
    Alcotest.test_case "concurrency: suppressed fixture" `Quick test_concurrency_allow;
    Alcotest.test_case "concurrency: lib/stats/pool.ml allowlisted" `Quick
      test_pool_module_classified;
    Alcotest.test_case "mli: orphan flagged, covered clean" `Quick test_mli_coverage;
    Alcotest.test_case "polycmp: Stdlib. prefix normalized" `Quick test_stdlib_prefix_normalized;
    Alcotest.test_case "unstable: named comparator trusted" `Quick test_named_comparator_trusted;
    Alcotest.test_case "unstable: tuple key is a tie-break" `Quick test_tuple_key_is_tie_break;
    Alcotest.test_case "parse error reported" `Quick test_parse_error;
    Alcotest.test_case "scope gates nondet rule" `Quick test_scope_gates_nondet;
    Alcotest.test_case "suppress: line scope" `Quick test_suppress_scope_lines;
    Alcotest.test_case "suppress: RJLnnn synonym" `Quick test_suppress_code_synonym;
    Alcotest.test_case "suppress: all" `Quick test_suppress_all;
    Alcotest.test_case "suppress: two findings, one line" `Quick
      test_suppress_multiple_findings_one_line;
    Alcotest.test_case "suppress: last line, no newline" `Quick
      test_suppress_last_line_no_newline;
    Alcotest.test_case "suppress: CRLF sources" `Quick test_suppress_crlf_source;
    Alcotest.test_case "stale: unused entry flagged" `Quick test_stale_suppress_fires;
    Alcotest.test_case "stale: used entry quiet" `Quick test_stale_suppress_used_entry_quiet;
    Alcotest.test_case "stale: typed rules gated by tier" `Quick test_stale_suppress_tier_gating;
    Alcotest.test_case "stale: driver reports a warning" `Quick test_stale_suppress_driver_warns;
    Alcotest.test_case "report order is a pinned total order" `Quick test_finding_order_total;
    Alcotest.test_case "io: std-channel applied forms" `Quick test_io_applied_std_channels;
    Alcotest.test_case "rule catalog roundtrips" `Quick test_rule_roundtrip;
    Alcotest.test_case "human report format" `Quick test_human_format;
    Alcotest.test_case "json report format" `Quick test_driver_json;
    Alcotest.test_case "driver: clean exit 0" `Quick test_driver_clean_exit;
    Alcotest.test_case "driver: usage error exit 2" `Quick test_driver_usage_error;
    Alcotest.test_case "meta: the repository lints itself clean" `Quick test_repo_is_clean;
  ]
