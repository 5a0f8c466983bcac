(** Which rule families apply to a file, derived from its repo-relative
    path (or forced, e.g. when linting test fixtures as if they lived in
    the scheduling core). *)

type kind = Lib | Bin | Bench | Test | Examples | Other

type t

val kind : t -> kind

val policy : t -> bool
(** Policy modules ([lib/core/], [lib/baselines/]) additionally ban
    toplevel mutable state. *)

val io_allowed : t -> bool
(** Whether console I/O is acceptable under this scope: true outside
    [lib/], and inside [lib/] only for the display modules. *)

val pool : t -> bool
(** The domain-pool module ([lib/stats/pool.ml]) is exempt from the raw
    concurrency rule (RJL008) — it exists to encapsulate exactly those
    primitives. *)

val classify : string -> t
(** Classify a repo-relative path ("lib/model/schedule.ml"). *)

val of_string : string -> t option
(** Parse a [--scope] CLI value: lib | policy | display | pool |
    bin | bench | test | examples | auto. *)
