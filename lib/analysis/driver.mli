(** The rejlint CLI, as a library function so tests can call it and the
    binary stays a one-liner.

    All output flows through the [out] callback — this module performs no
    console I/O itself, which is exactly what RJL005 demands of lib/. *)

val run : ?out:(string -> unit) -> string list -> int
(** [run ~out args] executes the CLI on [args] (argv minus the program
    name) and returns the exit status: 0 clean, 1 at least one
    error-severity finding, 2 usage error. *)

val usage : string
