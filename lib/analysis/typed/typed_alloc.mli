(** RJL103: static zero-alloc proof.  Flags structurally-allocating
    constructs (closures, tuples/constructors/records/arrays, mutable
    constructors, partial applications, float arithmetic in return
    position), and every [Float.min]/[Float.max] call (out of line to
    [caml_signbit]), inside the body of any binding annotated
    [let[@rejlint.hot] f ...], toplevel or local.  A [let x = ref e]
    whose [x] is only the cell operand of a full application of
    Stdlib's [!], [:=], [incr] or [decr], outside any closure, [lazy],
    let-op body or object, is not flagged: ocamlopt makes it a mutable
    local.  Subtrees marked
    [@rejlint.cold] (instrumentation branches, off in the steady state)
    are exempt.  Reading an already-stored float is deliberately not
    flagged — boundary boxing is the dynamic ceiling's job; this rule
    proves the loop builds no structures. *)

val check : file:string -> env:Typed_path.env -> Typedtree.structure -> Finding.t list

val hot_functions : Typedtree.structure -> string list
(** Names of every hot-annotated binding in the unit, in source order —
    the annotation guard test asserts the flat loop's set. *)

val pattern_names : 'k Typedtree.general_pattern -> string list
(** Names bound by a binding pattern (shared with the call-graph walk). *)
