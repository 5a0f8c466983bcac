(** Chrome [trace_event] JSON export of a flight recorder.

    The produced document opens directly in Perfetto (ui.perfetto.dev)
    or chrome://tracing: one thread row per machine (named via ["M"]
    metadata events), an ["X"] complete slice for every executed span —
    each {!Sched_obs.Recorder} start paired with the next
    complete/reject/restart on its machine — and ["i"] instant markers
    carrying the provenance payload at every rejection and restart.
    One simulation time unit renders as one millisecond.

    Pure string production and a shape checker that reads the document
    back with {!Sched_obs.Ndjson.parse}; callers own the I/O. *)

val to_chrome : machines:int -> Sched_obs.Recorder.t -> string
(** The whole recorder as one [{"traceEvents": [...]}] JSON document.
    Spans whose start or terminator was overwritten in the ring yield
    markers but no slice. *)

val validate : string -> (unit, string) result
(** Checks a document against the [trace_event] shape Perfetto expects:
    valid JSON (as {!Sched_obs.Ndjson.parse} reads it), a top-level
    ["traceEvents"] array, and per event a string ["ph"]/["name"] plus
    numeric ["pid"], with ["ts"]/["tid"] (and ["dur"] for ["X"]) on
    timed events.  Used by the tests and by
    [rejsched trace]'s self-check; the error names the first offending
    event. *)
