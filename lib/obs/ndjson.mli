(** Newline-delimited JSON records with a schema tag, plus the JSON
    primitives the other exporters share.

    Every record is a single-line JSON object whose first field is
    ["schema"] — a versioned tag like ["rejsched.trace/1"] — so stream
    consumers can dispatch without peeking at the rest of the record. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Non-finite floats are emitted as the quoted string tokens
          ["NaN"] / ["Infinity"] / ["-Infinity"] — valid JSON that
          still distinguishes the three values. *)
  | String of string

val obj : (string * value) list -> string
(** One JSON object on one line, fields in the given order, no trailing
    newline. *)

val line : schema:string -> (string * value) list -> string
(** {!obj} with [("schema", String schema)] prepended. *)

val escape : string -> string
(** JSON string-body escaping. *)

val float_repr : float -> string
(** Integral values up to 1e15 in magnitude print as [%.0f]; any other
    finite value as [%.12g] when that reads back exactly, else as
    [%.17g].  The result always reads back as the same float, but it is
    not always the shortest string that does: [4996.2489642590317] is
    printed where [4996.248964259032] would read back too.  The bytes
    are [Printf]'s for every input; integral values (through
    {!int_repr}) and non-integral values with [1e-4 <= |v| < 1e11] are
    formatted in OCaml, all others by the C runtime.  Non-finite values print as the JSON string tokens
    ["\"NaN\""], ["\"Infinity\""] and ["\"-Infinity\""] — the returned
    token includes the quotes, so splicing it raw into a JSON document
    (as {!Export.json} does) stays valid JSON. *)

val int_repr : int -> string
(** [string_of_int]'s bytes, written in OCaml rather than through the C
    runtime's format call; {!float_repr}'s integral values use the same
    digit writer. *)

val value_to_string : value -> string

(** {1 Reading}

    A full (nested) JSON tree for the consuming direction — [rejsched
    serve] parses arrival records with it.  [value] above stays flat
    because the writers never nest. *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

val parse : string -> (json, string) result
(** Total: malformed input (including trailing garbage after the value,
    and nesting deeper than 512 arrays or objects) yields [Error msg]
    with the byte offset, never an exception.

    Numbers follow JSON's grammar strictly,
    [-? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)?], and end at a
    byte that cannot continue one: [+1], [.5], [1.], [01], [-] and [1e]
    are ["malformed number at offset N"], N the number's first byte.
    The value is the double nearest the decimal M * 10^k (M its digits
    as an integer), bit-identical to [float_of_string] on the same
    bytes, computed by the first path that applies:
    - M < 2^53 and |k| <= 22: one exact multiply or divide (Clinger);
    - M of at most 18 digits and -22 <= k < 0: a double-double quotient,
      x = fl(M / 10^-k) corrected by the exact remainder, declined
      within an error bound of a rounding boundary;
    - otherwise (more than 18 significant digits, larger exponents,
      subnormals, the declined cases): [float_of_string]. *)

val member : string -> json -> json option
(** First binding of the field in an object; [None] on non-objects. *)
