(** Self-describing container for {!Driver.Session} checkpoints.

    A [Driver.Session.freeze] payload is marshaled plain data: any build
    of the same source restores it, but it does not describe its own
    layout.  This module frames it with a magic string, a format
    version, the policy name and an FNV-1a 64 checksum, so that a reader
    can reject anything that is not an intact snapshot from a writer
    with the same layout {e before} the payload reaches [Marshal] (whose
    behavior on corrupt or mis-shaped input is undefined).  Corrupted, truncated or alien files come back as a
    structured {!error}, never an exception — the CLI maps them to
    exit 2. *)

type error =
  | Bad_magic  (** Not a rejsched snapshot at all. *)
  | Bad_version of int  (** A snapshot, but from an incompatible format revision. *)
  | Truncated  (** Cut short (or carrying trailing garbage). *)
  | Checksum_mismatch  (** Framing intact but the bytes rotted. *)

val error_to_string : error -> string

val wrap : policy:string -> payload:string -> string
(** Frames a freeze payload under the given registry policy name. *)

val unwrap : string -> (string * string, error) result
(** [(policy, payload)] from an intact container.  Total: every byte
    string yields [Ok] or [Error], never raises. *)

val read_file : string -> string
(** Binary whole-file read; raises [Sys_error] as [open_in] does. *)
