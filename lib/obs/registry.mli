(** The metric registry: named, labelled instruments with a deterministic
    iteration order.

    Registration is get-or-create on [(name, labels)] — asking twice for
    the same key returns the same cell, so repeated runs over one
    registry accumulate.  Names and label keys must match
    [[A-Za-z_][A-Za-z0-9_]*]; labels are sorted by key at registration;
    one name is one instrument kind (a "family").  {!entries} iterates
    sorted by (name, labels, registration id) — byte-stable output for
    the exporter regardless of registration order. *)

type instrument =
  | Counter of Metric.Counter.t
  | Gauge of Metric.Gauge.t

type entry = {
  id : int;  (** Registration order, the final tie-break. *)
  name : string;
  labels : (string * string) list;  (** Sorted by key. *)
  help : string;
  instrument : instrument;
}

type t

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Metric.Counter.t
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Metric.Gauge.t

val entries : t -> entry list
(** Sorted by (name, labels, id); safe to export verbatim. *)

val merge : into:t -> t -> unit
(** Accumulates every instrument of the source registry into [into]
    (get-or-create by (name, labels)), iterating in {!entries} order —
    sorted by metric name and labels — so a fixed sequence of merges is
    deterministic.  Counters add; gauges take the source value
    (last-merged wins).  Raises [Invalid_argument] on an
    instrument-kind mismatch.  This is how per-task shard registries
    from parallel runs fold back into one exportable snapshot. *)

(* rejlint: allow test-only-export — tests read the driver's and the oracle's counters with it *)
val find : t -> name:string -> labels:(string * string) list -> entry option

val kind_name : instrument -> string
(** ["counter" | "gauge"]. *)
