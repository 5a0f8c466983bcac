(** NDJSON export of a {!Trace.t}.

    Each event becomes one JSON object per line, tagged with the schema
    ["rejsched.trace/1"] in its ["schema"] field so
    downstream consumers can dispatch on record versions.  Floats print
    as {!Sched_obs.Ndjson.float_repr} writes them, a form that reads back
    exactly, so exports are deterministic and byte-identical across equal
    traces. *)

val add_lines : Buffer.t -> Trace.t -> unit
(** Appends the unreleased entries ({!Trace.events}), one line per
    event, each newline-terminated, formatted straight from the
    trace's recorder rows.  Releases nothing: the caller moves the
    mark with {!Trace.release} once the lines are out. *)

val entry_line : Trace.entry -> string
(** One event as a single JSON object (no trailing newline), the same
    bytes {!add_lines} writes for its row. *)

(** {1 Flight-recorder export ([rejsched.trace/2])}

    {!Sched_obs.Recorder} entries render under a bumped schema tag: /2
    lines keep every /1 field name and add the provenance columns — a
    ["seq"] absolute event number on every line, the candidate set
    (["cands"]/["mask"]), ["pending_work"] and ["score"] on dispatch,
    ["size"] on start, ["flow"] on complete, the budget counters
    (["rejected_total"]/["rejected_weight"]) on reject. *)

val recorder_to_ndjson : ?last:int -> Sched_obs.Recorder.t -> string
(** Retained entries oldest-first, one ["rejsched.trace/2"] line each,
    newline-terminated; [?last] keeps only the newest [n] (the
    forensics tail). *)

(* rejlint: allow test-only-export — tests read serve's and the exporters' schema tags with it *)
val schema_of_line : string -> string option
(** Reads the schema tag back off an emitted line — the round-trip for
    the tagging convention: every line this module produces yields
    [Some "rejsched.trace/1"] / [Some "rejsched.trace/2"].  [None] if
    the line does not start with a schema field. *)
