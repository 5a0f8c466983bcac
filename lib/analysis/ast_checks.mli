(** The parsetree rule pass (RJL001–RJL005, RJL007, RJL008).

    Purely syntactic — rejlint parses unpreprocessed sources, so the
    checks are conservative approximations chosen so that a clean report
    is meaningful: named comparator functions are trusted, lambdas must
    show their tie-break, and the banned-identifier lists are exact
    paths (with [Stdlib.] prefixes normalized away). *)

val check : scope:Scope.t -> file:string -> Parsetree.structure -> Finding.t list
(** Run RJL001–RJL005, RJL007 and RJL008 over one parsed implementation.
    Which rules fire depends on [scope]; suppression comments are applied
    by the caller (see {!Lint}). *)

(** {2 Path classifiers}

    The banned-path tables, shared with the typed tier so both tiers
    agree on exactly what is banned.  Each takes a module path with any
    [Stdlib.] prefix already stripped (["Hashtbl"; "iter"]) and returns
    the reason the path is banned, or [None]. *)

val lid_path : Longident.t -> string list
(** The module path as written in source ([Lapply] components collapse
    to [[]], exactly the tier-1 blind spot), with [Stdlib.] stripped. *)

val banned_nondet : string list -> string option
(** RJL001: nondeterminism sources banned in [lib/]. *)

val banned_wallclock : string list -> string option
(** RJL007: wall-clock/monotonic time reads, banned everywhere in
    [lib/].  Checked before {!banned_nondet} so [Unix.gettimeofday]
    reports as the more specific rule. *)

val banned_concurrency : string list -> string option
(** RJL008: raw concurrency primitives, allowed only in the pool module. *)

val banned_io : string list -> string option
(** RJL005: console I/O identifiers ([print_string], [Printf.printf], ...). *)

val banned_io_applied : head:string list -> arg:string list option -> string option
(** RJL005, applied form: [head] applied with [arg] as its first
    positional argument ([Printf.fprintf stdout], [output_string stderr],
    [Format.fprintf Format.std_formatter]).  [arg] is the argument's
    identifier path, when it is an identifier. *)

val mutable_ctor : string list -> string option
(** RJL004: constructors of toplevel mutable state ([ref], [Array.make],
    [Hashtbl.create], ...), with a short description of what is built. *)
