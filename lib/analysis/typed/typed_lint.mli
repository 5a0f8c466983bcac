(** The typed tier orchestrator: loads cmt files, builds the
    project-wide type table and call graph, and runs RJL100 (alias-proof
    banned paths), RJL101 (type-aware polymorphic comparison, lib/
    only), RJL102 (policy purity), RJL103 (static zero-alloc) and
    RJL104 (no lib/ export that only tests use).

    Findings are raw — pre-suppression — and keyed by the units'
    source-relative paths; the {!Driver} merges them with the syntactic
    tier and applies suppressions once over the union. *)

type result = {
  findings : Finding.t list;  (** pre-suppression, sorted *)
  units : int;  (** implementation units analyzed *)
  load_errors : string list;  (** unreadable cmts, for a warning line *)
}

val run : ?cmt_dir:string -> unit -> (result, string) Stdlib.result
(** Discover and analyze every cmt under [cmt_dir] (default
    [_build/default]), excluding fixture trees.  [Error] when the
    directory holds no cmts at all (the build hasn't run). *)

val lint_cmts : ?scope:Scope.t -> string list -> Finding.t list
(** Analyze an explicit list of cmt files as one project (used by the
    fixture tests, with a forced scope).  Unreadable files are skipped. *)

(* rejlint: allow test-only-export — the hot-annotation guard test reads it *)
val hot_functions_of_cmt : string -> string list
(** [Typed_alloc.hot_functions] over one cmt file; empty on load
    failure.  Backs the annotation guard test. *)
