(** ASCII histograms for quick distribution views in examples and the
    CLI. *)

type t

val log_bins : ?bins:int -> float array -> t
(** Geometric bin edges — the right view for heavy-tailed flow times.  All
    values must be positive. *)

val render : ?width:int -> t -> string
(** Bars scaled to [width] (default 50) characters, one line per bin with
    its range and count. *)

(* rejlint: allow test-only-export — tests read the bins render draws with it *)
val counts : t -> (float * float * int) list
(** [(lo, hi, count)] per bin. *)
