(* NDJSON rendering of a trace: one schema-versioned JSON object per event,
   in chronological order.  Pure string production — callers own the I/O. *)

module J = Sched_obs.Ndjson
module R = Sched_obs.Recorder

let schema = "rejsched.trace/1"
let line_head = "{\"schema\":\"" ^ schema ^ "\",\"time\":"

(* The one trace/1 formatter: a line's fields straight into [buf], in
   the order every consumer has seen since the schema was cut — time,
   event, job, machine, then the kind's payload ([value] carries the
   speed, remaining volume or wasted work). *)
let add_line buf ~time ~(kind : R.kind) ~job ~machine ~was_running ~value =
  Buffer.add_string buf line_head;
  Buffer.add_string buf (J.float_repr time);
  Buffer.add_string buf ",\"event\":\"";
  Buffer.add_string buf (R.kind_to_string kind);
  Buffer.add_string buf "\",\"job\":";
  Buffer.add_string buf (J.int_repr job);
  Buffer.add_string buf ",\"machine\":";
  Buffer.add_string buf (J.int_repr machine);
  (match kind with
  | R.Dispatch | R.Complete -> ()
  | R.Start ->
      Buffer.add_string buf ",\"speed\":";
      Buffer.add_string buf (J.float_repr value)
  | R.Reject ->
      Buffer.add_string buf ",\"was_running\":";
      Buffer.add_string buf (if was_running then "true" else "false");
      Buffer.add_string buf ",\"remaining\":";
      Buffer.add_string buf (J.float_repr value)
  | R.Restart ->
      Buffer.add_string buf ",\"wasted\":";
      Buffer.add_string buf (J.float_repr value));
  Buffer.add_char buf '}'

let add_lines buf t =
  let rc = Trace.recorder t in
  let len = R.length rc in
  for k = len - Trace.unreleased t to len - 1 do
    add_line buf ~time:(R.time rc k) ~kind:(R.kind rc k) ~job:(R.job rc k)
      ~machine:(R.machine rc k) ~was_running:(R.flag rc k <> 0) ~value:(R.value rc k);
    Buffer.add_char buf '\n'
  done

let entry_line ({ time; event } : Trace.entry) =
  let buf = Buffer.create 128 in
  (match event with
  | Trace.Dispatch { job; machine } ->
      add_line buf ~time ~kind:R.Dispatch ~job ~machine ~was_running:false ~value:0.
  | Trace.Start { job; machine; speed } ->
      add_line buf ~time ~kind:R.Start ~job ~machine ~was_running:false ~value:speed
  | Trace.Complete { job; machine } ->
      add_line buf ~time ~kind:R.Complete ~job ~machine ~was_running:false ~value:0.
  | Trace.Reject { job; machine; was_running; remaining } ->
      add_line buf ~time ~kind:R.Reject ~job ~machine ~was_running ~value:remaining
  | Trace.Restart { job; machine; wasted } ->
      add_line buf ~time ~kind:R.Restart ~job ~machine ~was_running:false ~value:wasted);
  Buffer.contents buf

let to_ndjson t =
  let buf = Buffer.create 4096 in
  add_lines buf t;
  Buffer.contents buf

let ndjson lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  Buffer.contents buf

(* --- rejsched.trace/2: flight-recorder entries with provenance -------- *)

let schema_v2 = "rejsched.trace/2"

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
