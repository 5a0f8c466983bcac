(* Chrome trace_event JSON from a flight recorder, so any run opens in
   Perfetto (ui.perfetto.dev) or chrome://tracing as a per-machine
   timeline: one thread row per machine, an "X" (complete) slice per
   executed span, and instant markers at every rejection and restart.

   Timestamps: trace_event wants microseconds; one simulation time unit
   maps to one millisecond (x1000), which keeps typical instances in a
   readable zoom range.  Pure string production — callers own the I/O. *)

module J = Sched_obs.Ndjson
module R = Sched_obs.Recorder

let us t = t *. 1000.
let pid = 1
let tid_of_machine i = i + 1

(* One trace_event object; [args] (possibly empty) is spliced as a
   nested object, which the flat [J.obj] builder cannot express. *)
let event fields args =
  let base = J.obj fields in
  if args = [] then base
  else String.sub base 0 (String.length base - 1) ^ ",\"args\":" ^ J.obj args ^ "}"

let slice ~name ~cat ~machine ~start ~stop args =
  event
    [
      ("name", J.String name);
      ("cat", J.String cat);
      ("ph", J.String "X");
      ("ts", J.Float (us start));
      ("dur", J.Float (us (stop -. start)));
      ("pid", J.Int pid);
      ("tid", J.Int (tid_of_machine machine));
    ]
    args

let instant ~name ~cat ~machine ~time args =
  event
    [
      ("name", J.String name);
      ("cat", J.String cat);
      ("ph", J.String "i");
      ("s", J.String "t");
      ("ts", J.Float (us time));
      ("pid", J.Int pid);
      ("tid", J.Int (tid_of_machine machine));
    ]
    args

let metadata ~name ~tid args =
  match tid with
  | None -> event [ ("name", J.String name); ("ph", J.String "M"); ("pid", J.Int pid) ] args
  | Some tid ->
      event
        [ ("name", J.String name); ("ph", J.String "M"); ("pid", J.Int pid); ("tid", J.Int tid) ]
        args

let to_chrome ~machines recorder =
  let events = ref [] in
  let emit e = events := e :: !events in
  emit (metadata ~name:"process_name" ~tid:None [ ("name", J.String "rejsched") ]);
  for i = 0 to machines - 1 do
    emit
      (metadata ~name:"thread_name"
         ~tid:(Some (tid_of_machine i))
         [ ("name", J.String (Printf.sprintf "machine %d" i)) ])
  done;
  (* Pair each start with the next complete/reject/restart on its
     machine.  A start whose terminator fell off the ring (or vice
     versa) yields no slice — the markers still show. *)
  let open_start = Array.make (if machines > 0 then machines else 1) None in
  List.iter
    (fun (en : R.entry) ->
      let i = en.machine in
      match en.kind with
      | R.Dispatch -> ()
      | R.Start -> if i >= 0 && i < machines then open_start.(i) <- Some en
      | R.Complete | R.Reject | R.Restart ->
          if i >= 0 && i < machines then begin
            (match open_start.(i) with
            | Some (st : R.entry) when st.job = en.job && en.time >= st.time ->
                emit
                  (slice
                     ~name:(Printf.sprintf "job %d" en.job)
                     ~cat:"run" ~machine:i ~start:st.time ~stop:en.time
                     [ ("job", J.Int en.job); ("speed", J.Float st.value) ])
            | _ -> ());
            open_start.(i) <- None;
            match en.kind with
            | R.Reject ->
                emit
                  (instant
                     ~name:(Printf.sprintf "reject job %d" en.job)
                     ~cat:"reject" ~machine:i ~time:en.time
                     [
                       ("job", J.Int en.job);
                       ("was_running", J.Bool (en.flag <> 0));
                       ("remaining", J.Float en.value);
                       ("rejected_total", J.Int en.aux);
                       ("rejected_weight", J.Float en.budget);
                     ])
            | R.Restart ->
                emit
                  (instant
                     ~name:(Printf.sprintf "restart job %d" en.job)
                     ~cat:"restart" ~machine:i ~time:en.time
                     [ ("job", J.Int en.job); ("wasted", J.Float en.value) ])
            | _ -> ()
          end)
    (R.entries recorder);
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun k e ->
      if k > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf e)
    (List.rev !events);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* --- shape validation -------------------------------------------------- *)

(* The document is read back with the library's one JSON reader,
   [Ndjson.parse]; only the trace_event shape is checked here. *)

let check_event k e =
  let where what = Error (Printf.sprintf "traceEvents[%d]: %s" k what) in
  match e with
  | J.Jobj _ -> (
      match J.member "ph" e with
      | Some (J.Jstr ph) -> (
          let has_str name = match J.member name e with Some (J.Jstr _) -> true | _ -> false in
          let has_num name = match J.member name e with Some (J.Jnum _) -> true | _ -> false in
          if not (has_str "name") then where "missing string \"name\""
          else if not (has_num "pid") then where "missing numeric \"pid\""
          else
            match ph with
            | "M" -> Ok ()
            | "X" ->
                if not (has_num "ts") then where "\"X\" event missing numeric \"ts\""
                else if not (has_num "dur") then where "\"X\" event missing numeric \"dur\""
                else if not (has_num "tid") then where "\"X\" event missing numeric \"tid\""
                else Ok ()
            | "i" ->
                if not (has_num "ts") then where "\"i\" event missing numeric \"ts\""
                else if not (has_num "tid") then where "\"i\" event missing numeric \"tid\""
                else Ok ()
            | ph -> where (Printf.sprintf "unexpected ph %S" ph))
      | _ -> where "missing string \"ph\"")
  | _ -> where "not an object"

let validate text =
  match J.parse text with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.Jarr events) ->
          let rec go k = function
            | [] -> Ok ()
            | e :: rest -> ( match check_event k e with Ok () -> go (k + 1) rest | e -> e)
          in
          go 0 events
      | Some _ -> Error "\"traceEvents\" is not an array"
      | None -> Error "top-level object has no \"traceEvents\"")
