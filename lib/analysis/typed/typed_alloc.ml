(* RJL103: static zero-alloc proof for [@rejlint.hot] functions.

   PR 6's flat core guarantees a zero-allocation steady state, enforced
   dynamically by a minor-words-per-event ceiling.  This rule catches a
   boxing regression at lint time instead: inside the body of any
   binding annotated [let[@rejlint.hot] f ...] (toplevel or local), the
   structurally-allocating constructs are flagged:

   - closures ([fun]/[function] anywhere past the definition spine)
   - tuples, non-constant constructors (incl. [Some]/[::]), records,
     array literals, polymorphic variants with payload, lazy/object/
     first-class modules, let-ops
   - mutable-state constructors ([ref], [Array.make], [Hashtbl.create])
   - partial applications (the result type of the application is still
     an arrow: a closure is built at runtime)
   - float arithmetic in return position — the fresh float is boxed at
     the function boundary
   - [Float.min]/[Float.max] anywhere: each compiles to an out-of-line
     [caml_signbit] call (two per site), and under ocamlopt without
     flambda every register is caller-saved, so the call spills the
     loop's live floats around it.  Write [if a > b then a else b].

   Deliberately NOT flagged: reading an already-stored float
   ([st.clock.(0)] in an accessor).  The unavoidable boundary box of a
   float return is governed by the dynamic ceiling; this rule proves the
   loop builds no structures.  Float arithmetic whose result is consumed
   in place ([a.(i) <- a.(i) +. x], [if t < u +. eps ...]) compiles
   unboxed and is accepted.

   An expression marked [@rejlint.cold] (and everything beneath it) is
   exempt — the annotation marks instrumentation/trace branches that are
   off in the steady state. *)

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

let hot_attr = "rejlint.hot"
let cold_attr = "rejlint.cold"

let float_arith = function
  | [ ("+." | "-." | "*." | "/." | "**" | "~-." | "abs_float" | "sqrt" | "exp" | "log"
      | "float_of_int" | "mod_float") ] ->
      true
  | [ "Float";
      ( "add" | "sub" | "mul" | "div" | "neg" | "abs" | "rem" | "fma" | "sqrt" | "pow"
      | "of_int" ) ] ->
      true
  | _ -> false

let float_min_max = function [ "Float"; ("min" | "max") ] -> true | _ -> false
let signbit_call path = String.concat "." path ^ " (an out-of-line caml_signbit call)"

(* Names bound by a binding pattern (a hot binding is normally a single
   [Tpat_var], but aliases and constraints are peeled for robustness). *)
let rec pattern_names : type k. k Typedtree.general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ Ident.name id ]
  | Tpat_alias (p, id, _) -> Ident.name id :: pattern_names p
  | _ -> []

let binding_name vb =
  match pattern_names vb.Typedtree.vb_pat with name :: _ -> name | [] -> "<pattern>"

let check ~file ~env (structure : Typedtree.structure) =
  let findings = ref [] in
  let add ~fn ~loc what =
    let p = loc.Location.loc_start in
    findings :=
      Finding.make ~rule:Rule.Hot_alloc ~severity:Rule.Error ~file ~line:p.pos_lnum
        ~col:(p.pos_cnum - p.pos_bol)
        (Printf.sprintf "%s in [@rejlint.hot] function %s" what fn)
      :: !findings
  in
  let cold (e : Typedtree.expression) =
    has_attr cold_attr e.exp_attributes
    || List.exists (fun (_, _, attrs) -> has_attr cold_attr attrs) e.exp_extra
  in
  let check_hot fn expr =
    let flag loc what = add ~fn ~loc what in
    (* The definition spine — the curried parameter chain, including a
       trailing [function] dispatch — is the function itself, built once
       at definition time; everything below is per-call body code. *)
    let rec spine (e : Typedtree.expression) =
      if cold e then ()
      else
        match e.exp_desc with
        | Texp_function { cases; _ } ->
            List.iter
              (fun (c : Typedtree.value Typedtree.case) ->
                (match c.c_guard with Some g -> body ~tail:false g | None -> ());
                spine c.c_rhs)
              cases
        | _ -> body ~tail:true e
    and body ~tail (e : Typedtree.expression) =
      if cold e then ()
      else
        match e.exp_desc with
        | Texp_function _ -> flag e.exp_loc "closure allocation"
        | Texp_tuple l ->
            flag e.exp_loc "tuple allocation";
            List.iter (body ~tail:false) l
        | Texp_construct (lid, _, (_ :: _ as args)) ->
            flag e.exp_loc
              (Printf.sprintf "constructor allocation (%s)"
                 (String.concat "." (Ast_checks.lid_path lid.txt)));
            List.iter (body ~tail:false) args
        | Texp_record { fields; extended_expression; _ } ->
            flag e.exp_loc "record allocation";
            Array.iter
              (fun (_, def) ->
                match def with
                | Typedtree.Overridden (_, e) -> body ~tail:false e
                | Typedtree.Kept _ -> ())
              fields;
            Option.iter (body ~tail:false) extended_expression
        | Texp_array l ->
            flag e.exp_loc "array literal allocation";
            List.iter (body ~tail:false) l
        | Texp_variant (_, Some arg) ->
            flag e.exp_loc "polymorphic variant allocation";
            body ~tail:false arg
        | Texp_lazy _ -> flag e.exp_loc "lazy allocation"
        | Texp_object _ -> flag e.exp_loc "object allocation"
        | Texp_pack _ -> flag e.exp_loc "first-class module allocation"
        | Texp_letop _ -> flag e.exp_loc "let-operator (closure) allocation"
        | Texp_apply (head, args) ->
            (match Types.get_desc e.exp_type with
            | Tarrow _ -> flag e.exp_loc "partial application (closure) allocation"
            | _ -> ());
            (match head.exp_desc with
            | Texp_ident (p, _, _) -> (
                let resolved = Typed_path.resolve env p in
                (match Ast_checks.mutable_ctor resolved with
                | Some what -> flag e.exp_loc (what ^ " allocation")
                | None -> ());
                if float_min_max resolved then flag e.exp_loc (signbit_call resolved);
                if tail && float_arith resolved then
                  flag e.exp_loc "float arithmetic in return position (fresh box at the boundary)")
            | _ -> body ~tail:false head);
            List.iter (fun (_, a) -> Option.iter (body ~tail:false) a) args
        | Texp_let (_, vbs, b) ->
            List.iter (fun vb -> body ~tail:false vb.Typedtree.vb_expr) vbs;
            body ~tail b
        | Texp_sequence (a, b) ->
            body ~tail:false a;
            body ~tail b
        | Texp_ifthenelse (c, t, f) ->
            body ~tail:false c;
            body ~tail t;
            Option.iter (body ~tail) f
        | Texp_match (scrut, cases, _) ->
            body ~tail:false scrut;
            List.iter
              (fun (c : Typedtree.computation Typedtree.case) ->
                (match c.c_guard with Some g -> body ~tail:false g | None -> ());
                body ~tail c.c_rhs)
              cases
        | Texp_try (b, cases) ->
            body ~tail b;
            List.iter
              (fun (c : Typedtree.value Typedtree.case) ->
                (match c.c_guard with Some g -> body ~tail:false g | None -> ());
                body ~tail c.c_rhs)
              cases
        | Texp_field (b, _, _) -> body ~tail:false b
        | Texp_setfield (a, _, _, b) ->
            body ~tail:false a;
            body ~tail:false b
        | Texp_while (c, b) ->
            body ~tail:false c;
            body ~tail:false b
        | Texp_for (_, _, lo, hi, _, b) ->
            body ~tail:false lo;
            body ~tail:false hi;
            body ~tail:false b
        | Texp_assert (b, _) -> body ~tail:false b
        | Texp_open (_, b) -> body ~tail b
        | Texp_letmodule (_, _, _, _, b) -> body ~tail b
        | Texp_letexception (_, b) -> body ~tail b
        | Texp_ident (p, _, _) ->
            let resolved = Typed_path.resolve env p in
            if float_min_max resolved then flag e.exp_loc (signbit_call resolved)
        | Texp_constant _ | Texp_unreachable | Texp_extension_constructor _
        | Texp_instvar _ | Texp_variant (_, None) | Texp_construct (_, _, []) ->
            ()
        | Texp_setinstvar _ | Texp_override _ | Texp_send _ | Texp_new _ ->
            flag e.exp_loc "object operation (allocating)"
    in
    spine expr
  in
  let value_binding_pass sub (vb : Typedtree.value_binding) =
    if has_attr hot_attr vb.vb_attributes then check_hot (binding_name vb) vb.vb_expr;
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let it = { Tast_iterator.default_iterator with value_binding = value_binding_pass } in
  it.structure it structure;
  List.rev !findings

(* The names of every hot-annotated binding in the unit, for the
   annotation guard test: removing [@rejlint.hot] from the flat loop
   must be caught by something. *)
let hot_functions (structure : Typedtree.structure) =
  let acc = ref [] in
  let value_binding_pass sub (vb : Typedtree.value_binding) =
    if has_attr hot_attr vb.vb_attributes then acc := binding_name vb :: !acc;
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let it = { Tast_iterator.default_iterator with value_binding = value_binding_pass } in
  it.structure it structure;
  List.rev !acc
