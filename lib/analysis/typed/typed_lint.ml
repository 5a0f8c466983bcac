(* The typed tier orchestrator: load cmts, build the project-wide type
   table, call graph and use table, run RJL100/101/103 per unit and
   RJL102/104 over the graph.  Returns raw (pre-suppression) findings keyed by the units'
   source-relative paths; the Driver merges them with the syntactic
   tier, applies suppressions once over the union, and detects stale
   suppression entries. *)

type result = {
  findings : Finding.t list;  (* pre-suppression, sorted *)
  units : int;  (* implementation units analyzed *)
  load_errors : string list;  (* unreadable/foreign cmts, for a warning line *)
}

let analyze units =
  let table = Typed_env.create () in
  List.iter
    (fun (u : Typed_load.unit_info) -> Typed_env.add_unit table ~prefix:u.prefix u.structure)
    units;
  let graph = Typed_graph.create () in
  let envs =
    List.map
      (fun (u : Typed_load.unit_info) ->
        let env = Typed_path.build_env u.structure in
        if Scope.kind u.scope = Scope.Lib then Typed_graph.add_unit graph ~env u;
        Typed_graph.add_uses graph ~env u;
        (u, env))
      units
  in
  let per_unit =
    List.concat_map
      (fun ((u : Typed_load.unit_info), env) ->
        let file = u.source in
        let rjl100 = Typed_idents.check ~scope:u.scope ~file ~env u.structure in
        let rjl101 =
          if Scope.kind u.scope = Scope.Lib then
            Typed_polycmp.check ~table ~unit_prefix:u.prefix ~file ~env u.structure
          else []
        in
        let rjl103 = Typed_alloc.check ~file ~env u.structure in
        rjl100 @ rjl101 @ rjl103)
      envs
  in
  List.sort Finding.order
    (per_unit @ Typed_purity.check graph @ Typed_exports.check graph units)

let run ?(cmt_dir = Filename.concat "_build" "default") () =
  let cmts = Typed_load.discover cmt_dir in
  if cmts = [] then
    Error
      (Printf.sprintf "no .cmt files under %s (build first: dune build @all, or pass --cmt-dir)"
         cmt_dir)
  else begin
    let units = ref [] and load_errors = ref [] in
    List.iter
      (fun path ->
        match Typed_load.load path with
        | Ok u -> units := u :: !units
        | Error msg -> load_errors := msg :: !load_errors)
      cmts;
    (* Interface-only and generated-source cmts are expected misses, not
       errors worth reporting; only keep genuinely unreadable files. *)
    let expected_miss m =
      Filename.check_suffix m "no .ml source recorded"
      || Filename.check_suffix m "not an implementation cmt"
    in
    let load_errors = List.filter (fun m -> not (expected_miss m)) (List.rev !load_errors) in
    let units = List.rev !units in
    Ok { findings = analyze units; units = List.length units; load_errors }
  end

let lint_cmts ?scope paths =
  let units =
    List.filter_map
      (fun p -> match Typed_load.load ?scope p with Ok u -> Some u | Error _ -> None)
    paths
  in
  analyze units

let hot_functions_of_cmt path =
  match Typed_load.load path with
  | Ok u -> Typed_alloc.hot_functions u.structure
  | Error _ -> []
