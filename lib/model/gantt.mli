(** ASCII Gantt charts for schedules.

    One row per machine over a scaled time axis; each executing job is drawn
    with a stable alphanumeric symbol, idle time as ['.'], overlapping
    executions (the Section 4 parallel model) as ['+'].  Intended for
    examples, the CLI and debugging — render and read a schedule at a
    glance. *)

val render : ?width:int -> Schedule.t -> string
(** [render ~width s] (default width 72 columns of timeline) returns a
    multi-line chart followed by a legend of job symbols (rejected jobs
    are marked in the legend).  Empty schedules render a note instead. *)
