(* RJL100: the banned-path tables of tier 1 (RJL001 nondet, RJL005 I/O,
   RJL007 wall-clock, RJL008 concurrency) re-checked on resolved
   [Path.t]s.  A finding is only emitted when the identifier as written
   would NOT have matched the tier-1 tables — i.e. exactly the escapes
   the parsetree pass is blind to: module aliases, [let module]
   rebindings, eta-expanded rebindings of banned values reached through
   a module alias, and functor-applied paths (which tier 1 drops via
   [Lapply -> []]).  Plain [Hashtbl.iter] in source stays tier 1's
   finding; [H.iter] after [module H = Hashtbl] becomes RJL100. *)

let family_check ~scope resolved =
  let in_lib = Scope.kind scope = Scope.Lib in
  if in_lib then
    match Ast_checks.banned_wallclock resolved with
    | Some why -> Some ("wall-clock", why, Ast_checks.banned_wallclock)
    | None -> (
        match Ast_checks.banned_nondet resolved with
        | Some why -> Some ("nondeterminism", why, Ast_checks.banned_nondet)
        | None -> (
            match Ast_checks.banned_concurrency resolved with
            | Some why when not (Scope.pool scope) ->
                Some ("concurrency", why, Ast_checks.banned_concurrency)
            | Some _ -> None
            | None ->
                if not (Scope.io_allowed scope) then
                  match Ast_checks.banned_io resolved with
                  | Some why -> Some ("console I/O", why, Ast_checks.banned_io)
                  | None -> None
                else None))
  else if not (Scope.io_allowed scope) then
    match Ast_checks.banned_io resolved with
    | Some why -> Some ("console I/O", why, Ast_checks.banned_io)
    | None -> None
  else None

let check ~scope ~file ~env (structure : Typedtree.structure) =
  let findings = ref [] in
  let add ~loc message =
    let p = loc.Location.loc_start in
    findings :=
      Finding.make ~rule:Rule.Typed_nondet ~severity:Rule.Error ~file ~line:p.pos_lnum
        ~col:(p.pos_cnum - p.pos_bol) message
      :: !findings
  in
  let expr_pass sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (path, lid, _) -> (
        let resolved = Typed_path.resolve env path in
        match family_check ~scope resolved with
        | Some (family, why, table) ->
            (* Tier 1 already reports identifiers whose written form hits
               the same table; RJL100 owns only the resolved escapes. *)
            if table (Ast_checks.lid_path lid.txt) = None then
              add ~loc:lid.loc
                (Printf.sprintf "%s via resolved path %s (written as %s): %s" family
                   (String.concat "." resolved)
                   (String.concat "." (Ast_checks.lid_path lid.txt))
                   why)
        | None -> ())
    | Texp_apply ({ exp_desc = Texp_ident (hp, hlid, _); _ }, args)
      when not (Scope.io_allowed scope) -> (
        (* Applied console I/O (fprintf to a std channel) with either the
           head or the channel reached through an alias. *)
        let head = Typed_path.resolve env hp in
        let arg, written_arg =
          let positional =
            List.filter_map
              (fun (l, a) -> match (l, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
              args
          in
          match positional with
          | { Typedtree.exp_desc = Texp_ident (ap, alid, _); _ } :: _ ->
              (Some (Typed_path.resolve env ap), Some (Ast_checks.lid_path alid.txt))
          | _ -> (None, None)
        in
        match Ast_checks.banned_io_applied ~head ~arg with
        | Some why ->
            let written_head = Ast_checks.lid_path hlid.txt in
            if Ast_checks.banned_io_applied ~head:written_head ~arg:written_arg = None then
              add ~loc:hlid.loc
                (Printf.sprintf "console I/O via resolved path %s: %s" (String.concat "." head) why)
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr = expr_pass } in
  it.structure it structure;
  List.rev !findings
