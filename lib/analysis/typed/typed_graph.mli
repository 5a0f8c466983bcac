(** The intra-library call graph for RJL102.  Nodes are toplevel value
    bindings (including nested modules) keyed by logical dotted name;
    each records whether its RHS builds mutable toplevel state, the
    banned idents its body touches directly (minus the unit's Scope
    allowlists), and every resolved reference with its use location. *)

type node = {
  key : string;
  prefix : string list;
  unit_source : string;
  mutable is_mutable : bool;
  mutable hazards : (string * int * int) list;
  mutable refs : (string list * int * int) list;
}

type t

val create : unit -> t
val add_unit : t -> env:Typed_path.env -> Typed_load.unit_info -> unit

val resolve_ref : t -> from:node -> string list -> node option
(** Resolve a recorded reference against the node table, trying the
    referencing node's ancestor prefixes innermost-first (local
    references print without their container prefix). *)

val entries : t -> node list
(** The RJL102 entry points: every binding whose containing module is
    named [Policy_registry]. *)
