(** A single lint finding: a rule violation at a source location. *)

type t = {
  rule : Rule.id;
  severity : Rule.severity;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler messages *)
  message : string;
}

val make :
  rule:Rule.id ->
  severity:Rule.severity ->
  file:string ->
  line:int ->
  col:int ->
  string ->
  t

val order : t -> t -> int
(** Total order: file, line, column, rule (catalog position), severity
    (errors first), then message — report output is independent of
    discovery order and tier interleaving, and every tie is broken. *)

val to_human : t -> string
(** [file:line:col: [severity] rule (code): message] *)

val to_json : t -> string
(** One JSON object, no trailing newline. *)
