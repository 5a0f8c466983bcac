(** [(* rejlint: allow <rule> ... *)] suppression comments.

    A suppression names one or more rules (kebab-case name, RJLnnn code,
    or [all]) and silences their findings on its own line and on the line
    immediately below. *)

type t

val scan : string -> t
(** Scan raw source text for suppression comments. *)

val filter : t -> Finding.t list -> Finding.t list
(** Drop suppressed findings. *)

val unused : t -> typed_ran:bool -> Finding.t list -> (int * string) list
(** RJL009 input: the entries that silence none of [findings] (the
    file's complete pre-suppression finding set), as [(line, message)]
    pairs.  An entry is only judged when every tier its rules belong to
    ran — with [typed_ran = false], entries naming typed rules (and
    [allow all] entries) are exempt. *)
