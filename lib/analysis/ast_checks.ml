(* The parsetree rules (RJL001–RJL005, RJL007, RJL008).  Everything here is purely
   syntactic: rejlint runs on unpreprocessed sources with
   [Parse.implementation], so it sees exactly what the developer wrote,
   before any type information exists.  That keeps the linter fast and
   dependency-free, at the price of being a (deliberately conservative)
   approximation: a named comparator function is trusted, a lambda must
   carry visible evidence of a total tie-break. *)

open Parsetree

let rec flatten (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply _ -> []

(* Treat [Stdlib.X.f] and [X.f] alike. *)
let path_of lid =
  match flatten lid with "Stdlib" :: rest -> rest | p -> p

(* Exported for the typed tier, which compares what the developer wrote
   (the longident) against what it denotes (the resolved Path.t) to
   report only the escapes tier 1 cannot see. *)
let lid_path = path_of

let loc_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* ------------------------------------------------------------------ *)
(* RJL001: nondeterminism sources banned in lib/.                      *)

let banned_nondet path =
  match path with
  | [ "Random"; "self_init" ] -> Some "Random.self_init seeds from the environment"
  | "Unix" :: _ -> Some "Unix.* reaches outside the simulation"
  | [ "Hashtbl"; "iter" ] | [ "Hashtbl"; "fold" ] ->
      Some "Hashtbl iteration order depends on hashing/insertion history"
  | [ "Hashtbl"; "hash" ] -> Some "Hashtbl.hash-keyed logic is representation-dependent"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* RJL007: wall-clock/monotonic time reads, banned everywhere in lib/.
   Checked before RJL001 so that the clock paths that are also Unix.*
   report as the more specific rule. *)

let banned_wallclock path =
  match path with
  | [ "Sys"; "time" ] -> Some "Sys.time reads the process clock"
  | [ "Unix"; ("gettimeofday" | "time" | "times") ] ->
      Some (String.concat "." path ^ " reads the wall clock")
  | ("Mtime" | "Mtime_clock") :: _ ->
      Some (String.concat "." path ^ " reads the monotonic clock")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* RJL008: raw concurrency primitives, allowed only in the domain-pool
   module.  Domain.recommended_domain_count and Domain.DLS are fine —
   the rule targets the primitives that create or synchronize domains,
   which is what makes scheduling order observable. *)

let banned_concurrency path =
  match path with
  | [ "Domain"; ("spawn" | "join") ] ->
      Some (String.concat "." path ^ " creates/joins a domain")
  | "Atomic" :: _ | "Mutex" :: _ | "Condition" :: _ ->
      Some (String.concat "." path ^ " is a raw synchronization primitive")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* RJL005: console I/O outside the display/driver layers.              *)

let banned_io path =
  match path with
  | [ f ]
    when List.mem f
           [
             "print_string";
             "print_endline";
             "print_newline";
             "print_int";
             "print_float";
             "print_char";
             "print_bytes";
             "prerr_string";
             "prerr_endline";
             "prerr_newline";
           ] ->
      Some (Printf.sprintf "%s writes to the console" f)
  | [ ("Printf" | "Format"); ("printf" | "eprintf") ] ->
      Some (String.concat "." path ^ " writes to the console")
  | [ "Format"; ("print_string" | "print_newline" | "print_flush") ] ->
      Some (String.concat "." path ^ " writes to the console")
  | _ -> None

(* The applied forms: [Printf.fprintf stdout ...], [Format.fprintf
   Format.std_formatter ...] and bare [output_string stdout ...] target
   the console just as surely as [print_string], but the head identifier
   alone is innocent — the verdict needs the first argument.  Shared
   with the typed tier, which passes resolved paths instead. *)
let std_channel_arg path =
  match path with
  | [ ("stdout" | "stderr") ] -> true
  | [ "Format"; ("std_formatter" | "err_formatter") ] -> true
  | _ -> false

let banned_io_applied ~head ~arg =
  let std = match arg with Some p -> std_channel_arg p | None -> false in
  match head with
  | [ ("Printf" | "Format"); "fprintf" ] when std ->
      Some (String.concat "." head ^ " to a std channel writes to the console")
  | [ (("output_string" | "output_char" | "output_bytes" | "output_byte") as f) ] when std ->
      Some (f ^ " to a std channel writes to the console")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* RJL002/RJL003: sort comparators.                                    *)

let sort_family path =
  match path with
  | [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq" | "merge") ] -> Some `Stable
  | [ "Array"; ("sort" | "fast_sort") ] -> Some `Unstable
  | [ "Array"; "stable_sort" ] -> Some `Stable
  | _ -> None

(* The indexed heap takes its order as a labelled argument on every call
   that compares ([Iheap.add h ~less ctx ~pos ~id], [remove] alike, and
   [invariant heaps ~less ctx ~pos]); a polymorphic comparator there is
   the same RJL002 hazard as in a sort (the simulator's heaps key on
   floats, where polymorphic compare disagrees with the primitive
   comparisons the driver uses on NaN and [-0.]).  Only the [~less]
   label is read, so the position table and the other operands may
   take any shape.  Matched with or without the [Pqueue] prefix. *)
let heap_cmp_label path =
  match List.rev path with
  | ("add" | "remove" | "invariant") :: "Iheap" :: _ -> Some "less"
  | _ -> None

let poly_compare_name = function
  | [ ("compare" | "=" | "<" | ">" | "<=" | ">=" | "<>" | "min" | "max") ] -> true
  | _ -> false

(* A typed comparison: [M.compare] for any module path M. *)
let typed_compare_name path =
  match List.rev path with "compare" :: _ :: _ -> true | _ -> false

let rec peel_lambda e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> peel_lambda body
  | Pexp_newtype (_, body) -> peel_lambda body
  | Pexp_constraint (e, _) -> peel_lambda e
  | _ -> e

let rec peel_constraint e =
  match e.pexp_desc with Pexp_constraint (e, _) -> peel_constraint e | _ -> e

let is_lambda e =
  match (peel_constraint e).pexp_desc with Pexp_fun _ -> true | _ -> false

(* Field names that identify a job/slot uniquely; a comparison on one of
   these is accepted as a total tie-break. *)
let id_like_field lid =
  match List.rev (flatten lid) with
  | ("id" | "job" | "idx" | "index" | "key" | "seq") :: _ -> true
  | _ -> false

let tie_break_arg e =
  match (peel_constraint e).pexp_desc with
  | Pexp_tuple l when List.length l >= 2 -> true
  | Pexp_field (_, lid) -> id_like_field lid.txt
  | Pexp_ident _ -> true (* whole-element comparison *)
  | _ -> false

(* Collect every comparison application inside a comparator lambda. *)
let comparisons_in e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
              let path = path_of txt in
              if poly_compare_name path || typed_compare_name path then
                match List.filter (fun (l, _) -> l = Asttypes.Nolabel) args with
                | [ (_, x); (_, y) ] -> acc := (x, y) :: !acc
                | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  List.rev !acc

let poly_idents_in e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } when poly_compare_name (path_of txt) ->
              acc := (String.concat "." (flatten txt), loc) :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  List.rev !acc

(* Does a lambda comparator carry visible evidence of a total order?
   Accepted: two or more chained comparisons; a single comparison over
   tuples of >= 2 components; a single comparison on an id-like field or
   on the whole element. *)
let has_tie_break lambda =
  match comparisons_in lambda with
  | [] -> false
  | _ :: _ :: _ -> true
  | [ (x, y) ] -> tie_break_arg x && tie_break_arg y

(* ------------------------------------------------------------------ *)
(* RJL004: toplevel mutable state in policy modules.                   *)

let mutable_ctor path =
  match path with
  | [ "ref" ] -> Some "ref cell"
  | [ "Array"; ("make" | "create_float" | "init" | "make_matrix") ] -> Some "mutable array"
  | [ "Hashtbl"; "create" ] -> Some "hash table"
  | [ "Queue"; "create" ] | [ "Stack"; "create" ] -> Some "mutable queue/stack"
  | [ "Buffer"; "create" ] -> Some "buffer"
  | [ "Bytes"; ("create" | "make") ] -> Some "mutable bytes"
  | _ -> None

let rec toplevel_mutable e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> toplevel_mutable e
  | Pexp_array (_ :: _) -> Some "array literal"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> mutable_ctor (path_of txt)
  | Pexp_tuple l -> List.fold_left (fun acc e -> match acc with Some _ -> acc | None -> toplevel_mutable e) None l
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The combined pass.                                                  *)

let check ~(scope : Scope.t) ~file (str : structure) =
  let findings = ref [] in
  let add ~rule ~loc message =
    let line, col = loc_of loc in
    findings :=
      Finding.make ~rule ~severity:Rule.Error ~file ~line ~col message :: !findings
  in
  let in_lib = Scope.kind scope = Scope.Lib in
  let io_allowed = Scope.io_allowed scope in
  let check_comparator ~unstable cmp =
    (* RJL002: a bare polymorphic comparator, or polymorphic comparisons
       anywhere inside a comparator lambda. *)
    (match (peel_constraint cmp).pexp_desc with
    | Pexp_ident { txt; loc } when poly_compare_name (path_of txt) ->
        add ~rule:Rule.Poly_compare ~loc
          (Printf.sprintf
             "polymorphic %s used as a sort comparator; use a typed comparator (Float.compare, Int.compare, ...)"
             (String.concat "." (flatten txt)))
    | _ ->
        if is_lambda cmp then
          List.iter
            (fun (name, loc) ->
              add ~rule:Rule.Poly_compare ~loc
                (Printf.sprintf
                   "polymorphic %s inside a sort comparator; use a typed comparator (Float.compare, Int.compare, ...)"
                   name))
            (poly_idents_in cmp));
    (* RJL003: unstable sorts must end in a total tie-break.  Named
       comparator functions are trusted (audit them once, at their
       definition); lambdas must show their tie-break. *)
    if unstable && is_lambda cmp && not (has_tie_break (peel_lambda cmp)) then
      add ~rule:Rule.Unstable_sort ~loc:cmp.pexp_loc
        "Array.sort comparator has no visible total tie-break; end with Int.compare on a \
         unique id/index, compare a tuple key, or use Array.stable_sort"
  in
  let expr_iter sub e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        let path = path_of txt in
        (if in_lib then
           match banned_wallclock path with
           | Some why ->
               add ~rule:Rule.Wall_clock ~loc
                 (Printf.sprintf "%s: %s; scheduling code never reads real time" (String.concat "." (flatten txt)) why)
           | None -> (
               match banned_nondet path with
               | Some why ->
                   add ~rule:Rule.Nondet_source ~loc
                     (Printf.sprintf "%s: %s" (String.concat "." (flatten txt)) why)
               | None -> (
                   match banned_concurrency path with
                   | Some why ->
                       if not (Scope.pool scope) then
                         add ~rule:Rule.Raw_concurrency ~loc
                           (Printf.sprintf "%s: %s; submit tasks to Sched_stats.Pool instead"
                              (String.concat "." (flatten txt))
                              why)
                   | None -> ())));
        if not io_allowed then begin
          match banned_io path with
          | Some why -> add ~rule:Rule.Stray_io ~loc why
          | None -> ()
        end
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
        (if not io_allowed then
           let arg =
             match List.filter (fun (l, _) -> l = Asttypes.Nolabel) args with
             | (_, { pexp_desc = Pexp_ident { txt = a; _ }; _ }) :: _ -> Some (path_of a)
             | _ -> None
           in
           match banned_io_applied ~head:(path_of txt) ~arg with
           | Some why -> add ~rule:Rule.Stray_io ~loc why
           | None -> ());
        (match sort_family (path_of txt) with
        | Some kind -> (
            match List.filter (fun (l, _) -> l = Asttypes.Nolabel) args with
            | (_, cmp) :: _ -> check_comparator ~unstable:(kind = `Unstable) cmp
            | [] -> ())
        | None -> ());
        match heap_cmp_label (path_of txt) with
        | Some label -> (
            match
              List.find_opt
                (fun (l, _) ->
                  match l with Asttypes.Labelled s -> String.equal s label | _ -> false)
                args
            with
            | Some (_, cmp) -> check_comparator ~unstable:false cmp
            | None -> ())
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_iter } in
  it.structure it str;
  (* RJL004 walks structure items directly (module toplevels only; a ref
     created inside a function is fine). *)
  if Scope.policy scope then begin
    let rec walk_structure str =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, bindings) ->
              List.iter
                (fun vb ->
                  match toplevel_mutable vb.pvb_expr with
                  | Some what ->
                      add ~rule:Rule.Global_mutable ~loc:vb.pvb_loc
                        (Printf.sprintf
                           "toplevel %s in a policy module: policy state must live in the \
                            per-run state record so replays start fresh"
                           what)
                  | None -> ())
                bindings
          | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
              walk_structure s
          | _ -> ())
        str
    in
    walk_structure str
  end;
  List.rev !findings
