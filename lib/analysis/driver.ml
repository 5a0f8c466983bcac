(* The CLI logic lives in the library (and takes its output channel as a
   callback) so the test suite can exercise exit codes and report output
   without spawning a process — and so the linter can lint itself: no
   console I/O happens in lib/.

   Two tiers share one report.  The syntactic tier parses sources; the
   typed tier (--typed) loads the cmt files dune emitted and re-checks
   on resolved paths and types.  Suppression comments are applied once,
   over the union of both tiers' findings per file, which is also what
   makes stale-suppression detection (RJL009) sound: an entry is only
   called stale when every tier its rules belong to actually ran. *)

let usage =
  "usage: rejlint [--json] [--root DIR] [--scope SCOPE] [--typed | --syntactic-only]\n\
  \               [--cmt-dir DIR] [--rules] [PATH ...]\n\
   \n\
   Lints .ml/.mli sources for determinism and hygiene (see --rules).\n\
   PATH defaults to: lib bin bench test.  Directory paths are walked\n\
   recursively (skipping _build and lint_fixtures); file paths are linted\n\
   as given; .cmt paths are fed to the typed tier directly.  --typed adds\n\
   the typed tier (RJL1xx: resolved-path, type-aware and call-graph rules\n\
   over the cmt files under --cmt-dir, default _build/default); both\n\
   tiers' findings land in one report.  --scope forces the rule scope\n\
   (lib | policy | display | pool | bin | bench | test |\n\
   examples | auto) instead of deriving it from each file's path.\n\
   Exit status: 0 clean, 1 error findings, 2 usage error.\n"

type config = {
  json : bool;
  root : string;
  scope : Scope.t option;
  typed : bool;
  cmt_dir : string option;
  paths : string list;
}

let default_paths = [ "lib"; "bin"; "bench"; "test" ]

let parse_args args =
  let rec go cfg = function
    | [] -> Ok { cfg with paths = List.rev cfg.paths }
    | "--json" :: rest -> go { cfg with json = true } rest
    | "--root" :: dir :: rest -> go { cfg with root = dir } rest
    | "--root" :: [] -> Error "--root needs a directory"
    | "--scope" :: s :: rest -> (
        match Scope.of_string s with
        | Some scope -> go { cfg with scope = Some scope } rest
        | None -> Error (Printf.sprintf "unknown scope %S" s))
    | "--scope" :: [] -> Error "--scope needs a value"
    | "--typed" :: rest -> go { cfg with typed = true } rest
    | "--syntactic-only" :: rest -> go { cfg with typed = false } rest
    | "--cmt-dir" :: dir :: rest -> go { cfg with cmt_dir = Some dir } rest
    | "--cmt-dir" :: [] -> Error "--cmt-dir needs a directory"
    | "--rules" :: _ -> Error "--rules"
    | ("--help" | "-h") :: _ -> Error "--help"
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Error (Printf.sprintf "unknown option %S" arg)
    | path :: rest -> go { cfg with paths = path :: cfg.paths } rest
  in
  go { json = false; root = "."; scope = None; typed = false; cmt_dir = None; paths = [] } args

let rel_to ~root path =
  (* Normalize "./lib/foo.ml" and "root/lib/foo.ml" to "lib/foo.ml" for
     scope classification and stable report paths. *)
  let path =
    if root = "." then path
    else
      let prefix = if Filename.check_suffix root "/" then root else root ^ "/" in
      let lp = String.length prefix in
      if String.length path > lp && String.sub path 0 lp = prefix then
        String.sub path lp (String.length path - lp)
      else path
  in
  let rec strip p =
    if String.length p > 2 && String.sub p 0 2 = "./" then strip (String.sub p 2 (String.length p - 2))
    else p
  in
  strip path

(* Per-file accumulator: raw (pre-suppression) findings from every tier
   plus the file's suppression entries, so suppression and staleness are
   judged over the union. *)
type file_acc = {
  mutable raw : Finding.t list;
  suppress : Suppress.t;
  mutable typed_ran : bool;
}

let run ?(out = fun _ -> ()) args =
  match parse_args args with
  | Error "--help" ->
      out usage;
      0
  | Error "--rules" ->
      out (Report.rules_doc ());
      0
  | Error msg ->
      out ("rejlint: " ^ msg ^ "\n");
      out usage;
      2
  | Ok cfg ->
      let paths = match cfg.paths with [] -> default_paths | ps -> ps in
      let source_paths, cmt_paths =
        List.partition (fun p -> not (Filename.check_suffix p ".cmt")) paths
      in
      let files_scanned = ref 0 in
      let files : (string * file_acc) list ref = ref [] in
      let acc_for ~rel ~suppress_source =
        match List.assoc_opt rel !files with
        | Some acc -> acc
        | None ->
            let suppress = Suppress.scan (match suppress_source with Some s -> s | None -> "") in
            let acc = { raw = []; suppress; typed_ran = false } in
            files := (rel, acc) :: !files;
            acc
      in
      let lint_one ~check_mli abs =
        let rel = rel_to ~root:cfg.root abs in
        let scope = match cfg.scope with Some s -> s | None -> Scope.classify rel in
        incr files_scanned;
        let raw, suppress = Lint.lint_file_raw ~check_mli ~rel ~scope abs in
        (match List.assoc_opt rel !files with
        | Some acc -> acc.raw <- raw @ acc.raw
        | None -> files := (rel, { raw; suppress; typed_ran = false }) :: !files)
      in
      let missing = ref [] in
      let walked_prefixes = ref [] in
      List.iter
        (fun p ->
          let abs = if Filename.is_relative p then Filename.concat cfg.root p else p in
          if Sys.file_exists abs && Sys.is_directory abs then begin
            (* mli coverage is a property of the source tree, checked on
               directory walks; explicit single files skip it so fixture
               files can be linted in isolation. *)
            walked_prefixes := (rel_to ~root:cfg.root p ^ "/") :: !walked_prefixes;
            List.iter (lint_one ~check_mli:true) (Walk.ml_files abs)
          end
          else if Sys.file_exists abs then begin
            walked_prefixes := rel_to ~root:cfg.root p :: !walked_prefixes;
            lint_one ~check_mli:false abs
          end
          else missing := p :: !missing)
        source_paths;
      (match List.rev !missing with
      | [] -> ()
      | ps -> out (Printf.sprintf "rejlint: warning: no such path: %s\n" (String.concat ", " ps)));
      (* The typed tier: findings come back keyed by the units' recorded
         source paths; keep the ones under the requested paths and merge
         them into the per-file accumulators. *)
      let in_requested file =
        List.exists
          (fun pre ->
            if Filename.check_suffix pre "/" then
              String.length file >= String.length pre && String.sub file 0 (String.length pre) = pre
            else String.equal pre file)
          !walked_prefixes
      in
      let merge_typed rel typed_findings =
        let suppress_source =
          let abs = if Filename.is_relative rel then Filename.concat cfg.root rel else rel in
          if Sys.file_exists abs && not (Sys.is_directory abs) then Some (Lint.read_file abs)
          else None
        in
        let acc = acc_for ~rel ~suppress_source in
        acc.raw <- typed_findings @ acc.raw;
        acc.typed_ran <- true
      in
      let group_by_file findings =
        let sorted = List.sort Finding.order findings in
        let rec go acc current = function
          | [] -> List.rev (match current with None -> acc | Some g -> g :: acc)
          | (f : Finding.t) :: rest -> (
              match current with
              | Some (file, fs) when String.equal file f.file ->
                  go acc (Some (file, f :: fs)) rest
              | Some g -> go (g :: acc) (Some (f.file, [ f ])) rest
              | None -> go acc (Some (f.file, [ f ])) rest)
        in
        go [] None sorted
      in
      let usage_error = ref None in
      if cfg.typed then begin
        let cmt_dir =
          match cfg.cmt_dir with
          | Some d -> if Filename.is_relative d then Filename.concat cfg.root d else d
          | None -> Filename.concat cfg.root (Filename.concat "_build" "default")
        in
        match Typed_lint.run ~cmt_dir () with
        | Error msg -> usage_error := Some ("rejlint: " ^ msg ^ "\n")
        | Ok r ->
            List.iter
              (fun m -> out (Printf.sprintf "rejlint: warning: %s\n" m))
              r.Typed_lint.load_errors;
            (* Every source file under the requested paths got typed
               coverage, findings or not — interfaces too, for RJL104 —
               so mark them: RJL009 can then judge typed-rule
               suppressions there. *)
            List.iter
              (fun (rel, acc) ->
                if
                  (Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli")
                  && in_requested rel
                then acc.typed_ran <- true)
              !files;
            List.iter
              (fun (rel, fs) -> if in_requested rel then merge_typed rel fs)
              (group_by_file r.Typed_lint.findings)
      end;
      (* Explicit .cmt arguments: typed tier on just those units (used to
         lint fixtures in isolation). *)
      if cmt_paths <> [] then begin
        let abs_cmts =
          List.map (fun p -> if Filename.is_relative p then Filename.concat cfg.root p else p) cmt_paths
        in
        files_scanned := !files_scanned + List.length abs_cmts;
        let findings = Typed_lint.lint_cmts ?scope:cfg.scope abs_cmts in
        List.iter (fun (rel, fs) -> merge_typed rel fs) (group_by_file findings)
      end;
      (match !usage_error with
      | Some msg ->
          out msg;
          2
      | None ->
          let findings =
            List.concat_map
              (fun (rel, acc) ->
                let kept = Suppress.filter acc.suppress acc.raw in
                let stale =
                  List.map
                    (fun (line, msg) ->
                      Finding.make ~rule:Rule.Stale_suppress ~severity:Rule.Warning ~file:rel
                        ~line ~col:0 msg)
                    (Suppress.unused acc.suppress ~typed_ran:acc.typed_ran acc.raw)
                in
                kept @ stale)
              !files
          in
          let findings = List.sort Finding.order findings in
          let render = if cfg.json then Report.json else Report.human in
          out (render ~files_scanned:!files_scanned findings);
          let errors =
            List.exists (fun (f : Finding.t) -> f.Finding.severity = Rule.Error) findings
          in
          if errors then 1 else 0)
