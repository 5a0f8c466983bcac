(* The intra-library call graph for RJL102.  Nodes are toplevel value
   bindings (including bindings inside nested modules), keyed by their
   logical dotted name ("Sched_experiments.Policy_registry.pack").  Each
   node records:

   - whether its right-hand side builds mutable toplevel state (the
     typed analogue of RJL004's shape check),
   - the banned idents its body touches directly (I/O, clock, Random,
     concurrency, nondet), minus the unit's Scope allowlists,
   - every resolved identifier path it references, with use locations —
     the edges, resolved against the node table at traversal time.

   References inside closures count as references of the binding that
   builds the closure: a registry entry packing [fun () -> run ...] is
   exactly the kind of latent reach the rule exists to prove away. *)

type node = {
  key : string;
  prefix : string list;  (* module path of the binding's container *)
  unit_source : string;
  mutable is_mutable : bool;
  mutable hazards : (string * int * int) list;  (* description, line, col *)
  mutable refs : (string list * int * int) list;  (* resolved path, line, col *)
}

type t = { nodes : (string, node) Hashtbl.t; mutable entries : node list }

let create () = { nodes = Hashtbl.create 512; entries = [] }

let find_node t key = Hashtbl.find_opt t.nodes key

(* Resolve a reference recorded in [from] against the node table: local
   references print without their container prefix, so ancestor
   prefixes are tried innermost-first before the bare path. *)
let resolve_ref t ~(from : node) path =
  let rec prefixes acc = function
    | [] -> List.rev ([] :: acc)
    | p -> prefixes (p :: acc) (List.rev (List.tl (List.rev p)))
  in
  let rec try_candidates = function
    | [] -> None
    | pre :: rest -> (
        match find_node t (String.concat "." (pre @ path)) with
        | Some n -> Some n
        | None -> try_candidates rest)
  in
  try_candidates (prefixes [] from.prefix)

let rec top_mutable env (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_array (_ :: _) -> true
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      Ast_checks.mutable_ctor (Typed_path.resolve env p) <> None
  | Texp_tuple l -> List.exists (top_mutable env) l
  | _ -> false

let hazard_of ~scope resolved =
  let pool_ok = Scope.pool scope in
  let io_ok = Scope.io_allowed scope in
  let dotted = String.concat "." resolved in
  match Ast_checks.banned_wallclock resolved with
  | Some why -> Some (Printf.sprintf "%s (%s)" dotted why)
  | None -> (
      match Ast_checks.banned_nondet resolved with
      | Some why -> Some (Printf.sprintf "%s (%s)" dotted why)
      | None -> (
          match resolved with
          | "Random" :: _ ->
              Some (Printf.sprintf "%s (Random state is ambient mutable state)" dotted)
          | _ -> (
              match Ast_checks.banned_concurrency resolved with
              | Some why when not pool_ok -> Some (Printf.sprintf "%s (%s)" dotted why)
              | Some _ -> None
              | None -> (
                  match Ast_checks.banned_io resolved with
                  | Some why when not io_ok -> Some (Printf.sprintf "%s (%s)" dotted why)
                  | _ -> None))))

let analyze_binding ~env ~scope node (expr : Typedtree.expression) =
  node.is_mutable <- top_mutable env expr;
  let expr_pass sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, lid, _) ->
        let resolved = Typed_path.resolve env p in
        let pos = lid.Location.loc.loc_start in
        let line = pos.pos_lnum and col = pos.pos_cnum - pos.pos_bol in
        (match hazard_of ~scope resolved with
        | Some desc -> node.hazards <- (desc, line, col) :: node.hazards
        | None -> ());
        node.refs <- (resolved, line, col) :: node.refs
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr = expr_pass } in
  it.expr it expr

let is_entry_prefix prefix =
  match List.rev prefix with "Policy_registry" :: _ -> true | _ -> false

let add_unit t ~env (u : Typed_load.unit_info) =
  let scope = u.scope in
  let rec walk_structure prefix (str : Typedtree.structure) =
    List.iter (walk_item prefix) str.str_items
  and walk_item prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match Typed_alloc.pattern_names vb.vb_pat with
            | [] -> ()
            | names ->
                List.iter
                  (fun name ->
                    let key = String.concat "." (prefix @ [ name ]) in
                    let node =
                      {
                        key;
                        prefix;
                        unit_source = u.source;
                        is_mutable = false;
                        hazards = [];
                        refs = [];
                      }
                    in
                    analyze_binding ~env ~scope node vb.vb_expr;
                    if not (Hashtbl.mem t.nodes key) then Hashtbl.add t.nodes key node;
                    if is_entry_prefix prefix then t.entries <- node :: t.entries)
                  names)
          vbs
    | Tstr_module mb -> walk_module_binding prefix mb
    | Tstr_recmodule mbs -> List.iter (walk_module_binding prefix) mbs
    | _ -> ()
  and walk_module_binding prefix (mb : Typedtree.module_binding) =
    let sub_prefix =
      match mb.mb_id with Some id -> prefix @ [ Ident.name id ] | None -> prefix
    in
    walk_module_expr sub_prefix mb.mb_expr
  and walk_module_expr prefix (mexpr : Typedtree.module_expr) =
    match mexpr.mod_desc with
    | Tmod_structure s -> walk_structure prefix s
    | Tmod_constraint (m, _, _, _) -> walk_module_expr prefix m
    | _ -> ()
  in
  walk_structure u.prefix u.structure

let entries t = List.rev t.entries
