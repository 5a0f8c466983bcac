(** Aligned plain-text tables, the output format of every experiment.

    A table is a titled grid of string cells; rendering right-aligns numeric
    columns and left-aligns text, matching the look of tables in systems
    papers. *)

type t

val create : title:string -> columns:string list -> t
(** A fresh table with the given column headers. *)

val add_row : t -> string list -> unit
(** Appends a row; must have as many cells as there are columns. *)

val add_rows : t -> string list list -> unit

val title : t -> string
val columns : t -> string list
val rows : t -> string list list
(** Rows in insertion order. *)

val cell_float : float -> string
(** Standard numeric formatting for table cells ([%.4g], with infinities and
    NaN rendered readably). *)

val cell_int : int -> string
val cell_bool : bool -> string

(* rejlint: allow test-only-export — tests check the layout print writes with it *)
val render : t -> string
(** Render with a title line, a header, separators and aligned columns. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val to_csv : t -> string
(** Comma-separated rendering (header row first), quoting cells that need
    it. *)
