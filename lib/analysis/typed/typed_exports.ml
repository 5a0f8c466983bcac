(* RJL104: a lib/ interface's values must earn their place.  Each [val]
   in a lib/ .mli (nested signatures included) is looked up in the use
   table; uses from the value's own unit do not count, and neither do
   uses from test/.  A value nobody else uses, or that only the tests
   use, is reported at its declaration: either it goes (or leaves the
   .mli), or it is a deliberate test oracle and says so with an allow
   comment. *)

let rec sig_values prefix (items : Typedtree.signature_item list) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix @ [ vd.val_name.txt ], vd.val_loc.loc_start) ]
      | Tsig_module
          { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          sig_values (prefix @ [ name ]) s.sig_items
      | _ -> [])
    items

let interface_values (u : Typed_load.unit_info) =
  match Cmt_format.read_cmt (u.cmt_path ^ "i") with
  | { cmt_annots = Interface sg; _ } -> sig_values u.prefix sg.sig_items
  | _ -> []
  | exception _ -> []

(* Users of the value itself or of any enclosing module, down to the
   unit's own, handed over whole. *)
let users graph ~unit_len path =
  List.concat
    (List.init
       (List.length path - unit_len + 1)
       (fun k -> Typed_graph.users graph (List.filteri (fun i _ -> i < unit_len + k) path)))

let check graph (units : Typed_load.unit_info list) =
  List.concat_map
    (fun (u : Typed_load.unit_info) ->
      if Scope.kind u.scope <> Scope.Lib then []
      else
        let file = Filename.chop_suffix u.source ".ml" ^ ".mli" in
        List.filter_map
          (fun (path, (pos : Lexing.position)) ->
            let outside =
              List.filter
                (fun src -> not (String.equal src u.source))
                (users graph ~unit_len:(List.length u.prefix) path)
            in
            let production =
              List.filter (fun src -> Scope.kind (Scope.classify src) <> Scope.Test) outside
            in
            if production <> [] then None
            else
              let name = String.concat "." path in
              let msg =
                if outside = [] then
                  Printf.sprintf "exported value %s has no caller outside its own module" name
                else
                  Printf.sprintf "exported value %s is used only by tests (%s)" name
                    (String.concat ", " (List.sort_uniq String.compare outside))
              in
              Some
                (Finding.make ~rule:Rule.Test_only_export ~severity:Rule.Error ~file
                   ~line:pos.pos_lnum ~col:(pos.pos_cnum - pos.pos_bol) msg))
          (interface_values u))
    units
