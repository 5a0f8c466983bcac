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
   - mutable-state constructors ([ref], [Array.make], [Hashtbl.create]),
     except a local [let x = ref e] that stays local (below)
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

   A local ref that stays local is not flagged: when [x] in
   [let x = ref e in body] is only ever the operand of Stdlib's [!],
   [:=] (the cell, not the value), [incr] or [decr], fully applied and
   outside any closure, [lazy], let-op body or object, ocamlopt turns
   the cell into a mutable variable (Simplif's ref elimination), kept in
   a register, unboxed even for a float.  Any other use of [x] — passed,
   stored, returned, captured, partially applied — makes it a real heap
   cell, and the [ref] is flagged, even when the capturing construct is
   in a cold subtree.

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

(* The name of the Stdlib value at [p], if that is where it leads.  A
   Stdlib value is reached through the initially opened [Stdlib] (or an
   alias of it), so its path is never a bare [Pident]: one that is names
   the unit's own binding, such as a local [(!)] or [incr]. *)
let stdlib_value ~env (p : Path.t) =
  match p with
  | Pident _ -> None
  | _ -> ( match Typed_path.resolve env p with [ name ] -> Some name | _ -> None)

(* [!], [:=], [incr] and [decr] on the cell [x]: the uses ref
   elimination rewrites. *)
let ref_op = function Some ("!" | ":=" | "incr" | "decr") -> true | _ -> false

(* [(:=) x] without the value: the one partial application of a ref op,
   a closure over the cell. *)
let partial_set op rest = op = Some ":=" && rest = []

let is_var id (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (Path.Pident v, _, _) -> Ident.same v id | _ -> false

(* Whether the cell bound to [id] stays local in [scope]: every use is
   the first operand of a full application of a [ref_op], and none sits
   inside a construct that compiles to a function — a closure, [lazy], a
   let-op body or an object.  A partial application such as [(:=) x] is
   a closure too.  Ref elimination gives up on a cell any such function
   captures, so the cell is a real heap block, and it is flagged even
   when the capturing construct is cold. *)
let stays_local ~env id (scope : Typedtree.expression) =
  let escapes = ref false and in_closure = ref false in
  let expr (sub : Tast_iterator.iterator) (e : Typedtree.expression) =
    match e.exp_desc with
    | _ when !escapes -> ()
    | Texp_ident _ when is_var id e -> escapes := true
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, (_, Some cell) :: rest)
      when is_var id cell && ref_op (stdlib_value ~env p) ->
        if !in_closure || partial_set (stdlib_value ~env p) rest then escapes := true;
        List.iter (fun (_, a) -> Option.iter (sub.expr sub) a) rest
    | Texp_function _ | Texp_lazy _ | Texp_letop _ | Texp_object _ ->
        let outer = !in_closure in
        in_closure := true;
        Tast_iterator.default_iterator.expr sub e;
        in_closure := outer
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it scope;
  not !escapes

(* [let x = ref e]: the initial value [e]. *)
let ref_init ~env (vb : Typedtree.value_binding) =
  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
  | Tpat_var (id, _), Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some init) ])
    -> (
      match stdlib_value ~env p with Some "ref" -> Some (id, init) | _ -> None)
  | _ -> None

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
        | Texp_let (rec_flag, vbs, b) ->
            List.iter
              (fun vb ->
                match (rec_flag, ref_init ~env vb) with
                | Asttypes.Nonrecursive, Some (id, init) when stays_local ~env id b ->
                    body ~tail:false init
                | _ -> body ~tail:false vb.Typedtree.vb_expr)
              vbs;
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
