(* NDJSON rendering of a trace: one schema-versioned JSON object per event,
   in chronological order.  Pure string production — callers own the I/O. *)

module J = Sched_obs.Ndjson

let schema = "rejsched.trace/1"

let event_fields : Trace.event -> (string * J.value) list = function
  | Trace.Dispatch { job; machine } ->
      [ ("event", J.String "dispatch"); ("job", J.Int job); ("machine", J.Int machine) ]
  | Trace.Start { job; machine; speed } ->
      [
        ("event", J.String "start");
        ("job", J.Int job);
        ("machine", J.Int machine);
        ("speed", J.Float speed);
      ]
  | Trace.Complete { job; machine } ->
      [ ("event", J.String "complete"); ("job", J.Int job); ("machine", J.Int machine) ]
  | Trace.Reject { job; machine; was_running; remaining } ->
      [
        ("event", J.String "reject");
        ("job", J.Int job);
        ("machine", J.Int machine);
        ("was_running", J.Bool was_running);
        ("remaining", J.Float remaining);
      ]
  | Trace.Restart { job; machine; wasted } ->
      [
        ("event", J.String "restart");
        ("job", J.Int job);
        ("machine", J.Int machine);
        ("wasted", J.Float wasted);
      ]

let entry_line (en : Trace.entry) =
  J.line ~schema (("time", J.Float en.time) :: event_fields en.event)

let ndjson lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  Buffer.contents buf

let to_ndjson t = ndjson (List.map entry_line (Trace.events t))

(* --- rejsched.trace/2: flight-recorder entries with provenance -------- *)

let schema_v2 = "rejsched.trace/2"

module R = Sched_obs.Recorder

(* /2 lines keep every /1 field name (time/event/job/machine and the
   per-kind payloads) and add the provenance columns: a "seq" absolute
   event number on every line, candidate set + scores on dispatch,
   size on start, flow on complete, budget counters on reject. *)
let recorder_entry_line (en : R.entry) =
  let tail =
    match en.kind with
    | R.Dispatch ->
        [
          ("cands", J.Int en.flag);
          ("mask", J.Int en.aux);
          ("pending_work", J.Float en.value);
          ("score", J.Float en.score);
        ]
    | R.Start -> [ ("speed", J.Float en.value); ("size", J.Float en.score) ]
    | R.Complete -> [ ("flow", J.Float en.value) ]
    | R.Reject ->
        [
          ("was_running", J.Bool (en.flag <> 0));
          ("remaining", J.Float en.value);
          ("rejected_total", J.Int en.aux);
          ("rejected_weight", J.Float en.budget);
        ]
    | R.Restart -> [ ("wasted", J.Float en.value) ]
  in
  J.line ~schema:schema_v2
    (("seq", J.Int en.seq)
    :: ("time", J.Float en.time)
    :: ("event", J.String (R.kind_to_string en.kind))
    :: ("job", J.Int en.job)
    :: ("machine", J.Int en.machine)
    :: tail)

let recorder_lines ?last rec_ = List.map recorder_entry_line (R.entries ?last rec_)

let recorder_to_ndjson ?last rec_ = ndjson (recorder_lines ?last rec_)

(* The inverse of the tagging convention in [J.line]: every line the two
   exporters emit starts with {"schema":"..."}, and consumers dispatch on
   that tag before parsing the rest.  [None] when the line is not a
   schema-tagged record. *)
let schema_of_line line =
  let prefix = "{\"schema\":\"" in
  let plen = String.length prefix in
  if String.length line < plen || String.sub line 0 plen <> prefix then None
  else
    match String.index_from_opt line plen '"' with
    | None -> None
    | Some stop -> Some (String.sub line plen (stop - plen))
