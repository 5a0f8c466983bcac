(** Deterministic recursive discovery of [.ml]/[.mli] files.

    Directory entries are sorted ([Sys.readdir] order is unspecified);
    [_build], [.git] and [lint_fixtures] are skipped. *)

val ml_files : string -> string list
(** All source files under a directory, depth-first, lexicographic.
    Returns [[]] when the directory does not exist. *)
