(** Per-file lint entry points: parse, run the rule passes, apply
    suppression comments, sort findings. *)

(* rejlint: allow test-only-export — tests lint inline sources through it *)
val lint_source : scope:Scope.t -> file:string -> string -> Finding.t list
(** Lint source text as if it were [file] (used by tests to lint fixture
    text under a forced scope).  Runs the parsetree rules only — mli
    coverage is a property of the tree on disk, not of one buffer. *)

(* rejlint: allow test-only-export — tests lint fixture files through it *)
val lint_file : ?check_mli:bool -> ?rel:string -> scope:Scope.t -> string -> Finding.t list
(** Lint a file on disk.  [rel] is the repo-relative name used in
    findings (defaults to the path as given); [check_mli] (default true)
    also applies RJL006 for [lib/]-scoped files. *)

val lint_file_raw :
  ?check_mli:bool -> ?rel:string -> scope:Scope.t -> string -> Finding.t list * Suppress.t
(** As {!lint_file}, but returns the pre-suppression findings together
    with the scanned suppressions, so a caller merging several tiers can
    apply suppression once over the union and detect stale entries. *)

val read_file : string -> string
