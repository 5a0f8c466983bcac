(** SVG rendering of schedules: a self-contained vector Gantt chart for
    papers, slides and browsers (the vector sibling of {!Gantt}).

    One horizontal lane per machine; each execution segment is a rounded
    rectangle colored by job id (stable palette), with rejected jobs'
    partial executions hatched in red and a time axis below.  No external
    assets; the output is a complete [<svg>] document. *)

(* rejlint: allow test-only-export — tests check the document save writes with it *)
val render : ?width:int -> ?lane_height:int -> Schedule.t -> string
(** [render ~width ~lane_height s] (defaults 900 and 34 pixels). *)

val save : path:string -> ?width:int -> ?lane_height:int -> Schedule.t -> unit
