(** Descriptive statistics over float samples. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1 denominator). *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  total : float;
}

val of_array : float array -> t
(** [of_array a] summarizes [a]; raises [Invalid_argument] when empty. *)

(* rejlint: allow test-only-export — only its own test calls it (ROADMAP item 5) *)
val geometric_mean : float list -> float

(* rejlint: allow test-only-export — tests compare runs' summaries through it *)
val pp : Format.formatter -> t -> unit
(** Compact one-line rendering. *)
