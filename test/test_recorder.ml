(* Flight-recorder unit and integration tests: the ring's slot protocol
   and wrap behaviour, the recorder's reserve/decode round-trip (including
   the stale-cell masking that makes overwritten slots safe), the
   rejsched.trace/2 NDJSON goldens and their /1 compatibility contract,
   the schema-tag round-trip, non-finite float payloads, the Chrome
   trace_event export shape, and the provenance columns reconciling with
   the driver's live metrics on real runs. *)

open Sched_model
module Ring = Sched_obs.Ring
module Rec = Sched_obs.Recorder
module TE = Sched_sim.Trace_export
module P = Sched_experiments.Policy_registry

(* The recorder's trace/2 export, one string per line. *)
let recorder_lines rc = String.split_on_char '\n' (String.trim (TE.recorder_to_ndjson rc))

(* --- Ring -------------------------------------------------------------- *)

(* Writers store straight into the row-major backing arrays, as the
   recorder does; [cols] is the ring's column count of that type. *)
let set_int r ~cols ~col ~slot v = (Ring.ints r).((slot * cols) + col) <- v
let set_float r ~cols ~col ~slot v = (Ring.floats r).((slot * cols) + col) <- v

let test_ring_create_validation () =
  Alcotest.(check bool) "capacity 0" true
    (match Ring.create ~int_cols:1 ~float_cols:1 ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative capacity" true
    (match Ring.create ~int_cols:1 ~float_cols:1 ~capacity:(-4) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative columns" true
    (match Ring.create ~int_cols:(-1) ~float_cols:0 ~capacity:4 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Zero columns of either type is legal — the other family still works. *)
  let r = Ring.create ~int_cols:0 ~float_cols:1 ~capacity:2 in
  let s = Ring.append r in
  set_float r ~cols:1 ~col:0 ~slot:s 1.5;
  Alcotest.(check (float 0.)) "float-only ring" 1.5 (Ring.get_float r ~col:0 0)

(* Appends past capacity overwrite oldest-first; readers see a sliding
   window whose absolute position [first_seq] reports. *)
let test_ring_wrap () =
  let r = Ring.create ~int_cols:2 ~float_cols:1 ~capacity:3 in
  for k = 0 to 4 do
    let slot = Ring.append r in
    set_int r ~cols:2 ~col:0 ~slot (10 * k);
    set_int r ~cols:2 ~col:1 ~slot (-k);
    set_float r ~cols:1 ~col:0 ~slot (float_of_int k /. 4.)
  done;
  Alcotest.(check int) "total" 5 (Ring.total r);
  Alcotest.(check int) "length capped" 3 (Ring.length r);
  Alcotest.(check int) "first_seq" 2 (Ring.first_seq r);
  (* Retained entries are 2, 3, 4 oldest-first. *)
  List.iteri
    (fun i k ->
      Alcotest.(check int) "col0" (10 * k) (Ring.get_int r ~col:0 i);
      Alcotest.(check int) "col1" (-k) (Ring.get_int r ~col:1 i);
      Alcotest.(check (float 0.)) "float" (float_of_int k /. 4.) (Ring.get_float r ~col:0 i))
    [ 2; 3; 4 ];
  Alcotest.(check bool) "index below range" true
    (match Ring.get_int r ~col:0 (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "index above range" true
    (match Ring.get_int r ~col:0 3 with exception Invalid_argument _ -> true | _ -> false)

(* The power-of-two fast path ([land] mask) and the generic path ([mod])
   must produce the same slot sequence for their respective capacities. *)
let test_ring_slot_sequence () =
  List.iter
    (fun cap ->
      let r = Ring.create ~int_cols:1 ~float_cols:0 ~capacity:cap in
      for k = 0 to (3 * cap) + 1 do
        Alcotest.(check int)
          (Printf.sprintf "cap %d append %d" cap k)
          (k mod cap) (Ring.append r)
      done)
    [ 1; 2; 4; 8; 3; 5; 6; 7 ]

(* A held ring grows instead of overwriting the held entry, keeps every
   entry from the hold on, and wraps again over entries before a hold
   that moved forward. *)
let test_ring_hold_grows () =
  let r = Ring.create ~int_cols:1 ~float_cols:0 ~capacity:2 in
  let push v = set_int r ~cols:1 ~col:0 ~slot:(Ring.append r) v in
  Ring.hold r 0;
  List.iter push [ 10; 11; 12; 13; 14 ];
  Alcotest.(check int) "grew past the hold" 8 (Ring.capacity r);
  Alcotest.(check (list int)) "nothing lost" [ 10; 11; 12; 13; 14 ]
    (List.init (Ring.length r) (fun k -> Ring.get_int r ~col:0 k));
  Ring.hold r 5;
  List.iter push [ 15; 16; 17; 18; 19; 20; 21; 22 ];
  Alcotest.(check int) "released entries absorb new ones" 8 (Ring.capacity r);
  Alcotest.(check int) "oldest retained" 15 (Ring.get_int r ~col:0 0);
  Alcotest.(check bool) "hold below the retained window rejected" true
    (match Ring.hold r 3 with exception Invalid_argument _ -> true | () -> false);
  let c = Ring.compact r in
  Alcotest.(check int) "compact keeps the total" (Ring.total r) (Ring.total c);
  Alcotest.(check int) "compact keeps the held entries only" 8 (Ring.length c);
  Alcotest.(check int) "compact capacity fits them" 8 (Ring.capacity c)

(* Random append / hold / release sequences against an unbounded
   reference recording: every retained entry decodes exactly as the
   reference's entry of the same sequence number, entries from the hold
   on are always retained (through any number of growths, and in a
   compacted copy), and a ring that was never held keeps its capacity
   and the newest [capacity] entries, as a fixed-capacity ring does. *)
let write_row rc p =
  let kind = p mod 5 and job = p and machine = p mod 7 in
  let b =
    match kind with
    | 0 -> Rec.reserve_dispatch rc ~job ~machine ~cands:(p mod 3) ~mask:(p land 7)
    | 1 -> Rec.reserve_start rc ~job ~machine
    | 2 -> Rec.reserve_complete rc ~job ~machine
    | 3 -> Rec.reserve_reject rc ~job ~machine ~was_running:(p land 1 = 1) ~rejected:p
    | _ -> Rec.reserve_restart rc ~job ~machine
  in
  rc.Rec.floats.(b + Rec.o_time) <- float_of_int p /. 4.;
  rc.Rec.floats.(b + Rec.o_value) <- float_of_int (p + 1) /. 2.;
  if kind <= 1 then rc.Rec.floats.(b + Rec.o_score) <- float_of_int p;
  if kind = 3 then rc.Rec.floats.(b + Rec.o_budget) <- float_of_int p *. 3.

let from rc seq = Rec.entries ~last:(Rec.total rc - seq) rc

let test_hold_qcheck =
  QCheck.Test.make ~name:"ring: holds survive growth (qcheck)" ~count:300
    QCheck.(pair (int_range 1 5) (small_list (pair (int_range 0 9) small_nat)))
    (fun (cap, ops) ->
      let rc = Rec.create ~capacity:cap () and reference = Rec.create ~capacity:8192 () in
      let ring = rc.Rec.ring in
      let ever_held = ref false in
      List.for_all
        (fun (op, p) ->
          (if op <= 6 then (write_row rc p; write_row reference p)
           else begin
             (* Hold (or move the hold to) a random retained entry, or
                release everything read so far. *)
             let first = Ring.first_seq ring in
             Ring.hold ring
               (if op = 9 then Ring.total ring else first + (p mod (Ring.total ring - first + 1)));
             ever_held := true
           end);
          let first = Ring.first_seq ring in
          Rec.entries rc = from reference first
          && (match Ring.held ring with
             | None -> true
             | Some h ->
                 first <= h && from (Rec.compact rc) h = from reference h)
          && (!ever_held
             || Rec.capacity rc = cap && Rec.length rc = min (Rec.total rc) cap))
        ops)
  |> QCheck_alcotest.to_alcotest

(* --- Recorder ---------------------------------------------------------- *)

(* One entry of every kind, floats stored through the row-base protocol,
   decoded back field-for-field. *)
let test_recorder_round_trip () =
  let rc = Rec.create ~capacity:8 () in
  let b = Rec.reserve_dispatch rc ~job:3 ~machine:1 ~cands:2 ~mask:0b101 in
  rc.Rec.floats.(b + Rec.o_time) <- 0.5;
  rc.Rec.floats.(b + Rec.o_value) <- 2.25;
  rc.Rec.floats.(b + Rec.o_score) <- 3.75;
  let b = Rec.reserve_start rc ~job:3 ~machine:1 in
  rc.Rec.floats.(b + Rec.o_time) <- 0.5;
  rc.Rec.floats.(b + Rec.o_value) <- 1.;
  rc.Rec.floats.(b + Rec.o_score) <- 4.5;
  let b = Rec.reserve_reject rc ~job:7 ~machine:0 ~was_running:true ~rejected:2 in
  rc.Rec.floats.(b + Rec.o_time) <- 1.5;
  rc.Rec.floats.(b + Rec.o_value) <- 0.75;
  rc.Rec.floats.(b + Rec.o_budget) <- 6.5;
  let b = Rec.reserve_restart rc ~job:4 ~machine:2 in
  rc.Rec.floats.(b + Rec.o_time) <- 2.;
  rc.Rec.floats.(b + Rec.o_value) <- 1.25;
  let b = Rec.reserve_complete rc ~job:3 ~machine:1 in
  rc.Rec.floats.(b + Rec.o_time) <- 5.;
  rc.Rec.floats.(b + Rec.o_value) <- 4.5;
  Alcotest.(check int) "total" 5 (Rec.total rc);
  Alcotest.(check int) "dropped" 0 (Rec.dropped rc);
  match Rec.entries rc with
  | [ d; s; rj; rs; c ] ->
      Alcotest.(check int) "seq monotone" 0 d.Rec.seq;
      Alcotest.(check bool) "dispatch kind" true (d.Rec.kind = Rec.Dispatch);
      Alcotest.(check int) "dispatch job" 3 d.Rec.job;
      Alcotest.(check int) "dispatch machine" 1 d.Rec.machine;
      Alcotest.(check int) "dispatch cands" 2 d.Rec.flag;
      Alcotest.(check int) "dispatch mask" 0b101 d.Rec.aux;
      Alcotest.(check (float 0.)) "dispatch work" 2.25 d.Rec.value;
      Alcotest.(check (float 0.)) "dispatch score" 3.75 d.Rec.score;
      Alcotest.(check bool) "start kind" true (s.Rec.kind = Rec.Start);
      Alcotest.(check (float 0.)) "start size" 4.5 s.Rec.score;
      Alcotest.(check bool) "reject kind" true (rj.Rec.kind = Rec.Reject);
      Alcotest.(check int) "reject was_running" 1 rj.Rec.flag;
      Alcotest.(check int) "reject rejected-so-far" 2 rj.Rec.aux;
      Alcotest.(check (float 0.)) "reject remaining" 0.75 rj.Rec.value;
      Alcotest.(check (float 0.)) "reject budget" 6.5 rj.Rec.budget;
      Alcotest.(check int) "restart seq" 3 rs.Rec.seq;
      Alcotest.(check bool) "restart kind" true (rs.Rec.kind = Rec.Restart);
      Alcotest.(check (float 0.)) "restart wasted" 1.25 rs.Rec.value;
      Alcotest.(check bool) "complete kind" true (c.Rec.kind = Rec.Complete);
      Alcotest.(check (float 0.)) "complete flow" 4.5 c.Rec.value
  | es -> Alcotest.failf "expected 5 entries, got %d" (List.length es)

(* [reserve] does not zero float cells, so a kind that leaves score/budget
   unset can land in a slot whose previous occupant stored them; decode
   must mask those columns by kind rather than surface the stale payload. *)
let test_recorder_wrap_masks_stale_cells () =
  let rc = Rec.create ~capacity:2 () in
  let b = Rec.reserve_dispatch rc ~job:0 ~machine:0 ~cands:1 ~mask:1 in
  rc.Rec.floats.(b + Rec.o_time) <- 0.;
  rc.Rec.floats.(b + Rec.o_value) <- 1.;
  rc.Rec.floats.(b + Rec.o_score) <- 9.5;
  let b = Rec.reserve_reject rc ~job:1 ~machine:0 ~was_running:false ~rejected:1 in
  rc.Rec.floats.(b + Rec.o_time) <- 1.;
  rc.Rec.floats.(b + Rec.o_value) <- 2.;
  rc.Rec.floats.(b + Rec.o_budget) <- 7.5;
  (* Slot 0 (the dispatch, with its 9.5 score still in the cell) is now
     overwritten by a complete, which stores neither score nor budget. *)
  let b = Rec.reserve_complete rc ~job:0 ~machine:0 in
  rc.Rec.floats.(b + Rec.o_time) <- 2.;
  rc.Rec.floats.(b + Rec.o_value) <- 2.;
  Alcotest.(check int) "one entry lost" 1 (Rec.dropped rc);
  (match Rec.entries rc with
  | [ rj; c ] ->
      Alcotest.(check int) "reject kept seq" 1 rj.Rec.seq;
      Alcotest.(check (float 0.)) "reject budget intact" 7.5 rj.Rec.budget;
      Alcotest.(check int) "complete seq" 2 c.Rec.seq;
      Alcotest.(check (float 0.)) "stale score masked" 0. c.Rec.score;
      Alcotest.(check (float 0.)) "stale budget masked" 0. c.Rec.budget
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  (* A reject overwriting the other slot keeps its own budget. *)
  let b = Rec.reserve_reject rc ~job:2 ~machine:0 ~was_running:true ~rejected:2 in
  rc.Rec.floats.(b + Rec.o_time) <- 3.;
  rc.Rec.floats.(b + Rec.o_value) <- 0.5;
  rc.Rec.floats.(b + Rec.o_budget) <- 8.25;
  match Rec.entries ~last:1 rc with
  | [ rj ] -> Alcotest.(check (float 0.)) "fresh budget read back" 8.25 rj.Rec.budget
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

let test_recorder_entries_last () =
  let rc = Rec.create ~capacity:4 () in
  for k = 0 to 5 do
    let b = Rec.reserve_complete rc ~job:k ~machine:0 in
    rc.Rec.floats.(b + Rec.o_time) <- float_of_int k;
    rc.Rec.floats.(b + Rec.o_value) <- 0.
  done;
  let jobs es = List.map (fun e -> e.Rec.job) es in
  Alcotest.(check (list int)) "all retained" [ 2; 3; 4; 5 ] (jobs (Rec.entries rc));
  Alcotest.(check (list int)) "last 2" [ 4; 5 ] (jobs (Rec.entries ~last:2 rc));
  Alcotest.(check (list int)) "last 0" [] (jobs (Rec.entries ~last:0 rc));
  Alcotest.(check (list int)) "last negative" [] (jobs (Rec.entries ~last:(-3) rc));
  Alcotest.(check (list int)) "last beyond length" [ 2; 3; 4; 5 ]
    (jobs (Rec.entries ~last:100 rc));
  Alcotest.(check (list int)) "seq absolute" [ 4; 5 ]
    (List.map (fun e -> e.Rec.seq) (Rec.entries ~last:2 rc))

(* The default capacity must stay a power of two, or every production
   recorder silently falls off the division-free append fast path. *)
let test_recorder_default_capacity () =
  let c = Rec.default_capacity in
  Alcotest.(check int) "documented value" 65536 c;
  Alcotest.(check int) "power of two" 0 (c land (c - 1))

(* --- rejsched.trace/2 NDJSON golden (satellite: schema round-trip) ----- *)

let five_kinds_recorder () =
  let rc = Rec.create ~capacity:8 () in
  let b = Rec.reserve_dispatch rc ~job:0 ~machine:1 ~cands:2 ~mask:3 in
  rc.Rec.floats.(b + Rec.o_time) <- 0.5;
  rc.Rec.floats.(b + Rec.o_value) <- 2.25;
  rc.Rec.floats.(b + Rec.o_score) <- 3.75;
  let b = Rec.reserve_start rc ~job:0 ~machine:1 in
  rc.Rec.floats.(b + Rec.o_time) <- 0.5;
  rc.Rec.floats.(b + Rec.o_value) <- 1.;
  rc.Rec.floats.(b + Rec.o_score) <- 1.75;
  let b = Rec.reserve_reject rc ~job:0 ~machine:1 ~was_running:true ~rejected:1 in
  rc.Rec.floats.(b + Rec.o_time) <- 2.25;
  rc.Rec.floats.(b + Rec.o_value) <- 0.75;
  rc.Rec.floats.(b + Rec.o_budget) <- 1.5;
  let b = Rec.reserve_restart rc ~job:2 ~machine:0 in
  rc.Rec.floats.(b + Rec.o_time) <- 3.;
  rc.Rec.floats.(b + Rec.o_value) <- 1.5;
  let b = Rec.reserve_complete rc ~job:2 ~machine:0 in
  rc.Rec.floats.(b + Rec.o_time) <- 4.;
  rc.Rec.floats.(b + Rec.o_value) <- 2.5;
  rc

let test_recorder_ndjson_golden () =
  let expected =
    "{\"schema\":\"rejsched.trace/2\",\"seq\":0,\"time\":0.5,\"event\":\"dispatch\",\"job\":0,\"machine\":1,\"cands\":2,\"mask\":3,\"pending_work\":2.25,\"score\":3.75}\n\
     {\"schema\":\"rejsched.trace/2\",\"seq\":1,\"time\":0.5,\"event\":\"start\",\"job\":0,\"machine\":1,\"speed\":1,\"size\":1.75}\n\
     {\"schema\":\"rejsched.trace/2\",\"seq\":2,\"time\":2.25,\"event\":\"reject\",\"job\":0,\"machine\":1,\"was_running\":true,\"remaining\":0.75,\"rejected_total\":1,\"rejected_weight\":1.5}\n\
     {\"schema\":\"rejsched.trace/2\",\"seq\":3,\"time\":3,\"event\":\"restart\",\"job\":2,\"machine\":0,\"wasted\":1.5}\n\
     {\"schema\":\"rejsched.trace/2\",\"seq\":4,\"time\":4,\"event\":\"complete\",\"job\":2,\"machine\":0,\"flow\":2.5}\n"
  in
  Alcotest.(check string) "ndjson" expected (TE.recorder_to_ndjson (five_kinds_recorder ()))

(* Version-compatibility golden: a /2 line carries every /1 field, same
   names, same relative order — strip the /1 schema tag and the payload
   must appear verbatim inside the corresponding /2 line.  A consumer
   reading /1 fields keeps working on /2 records. *)
let test_v1_fields_embedded_in_v2 () =
  let t = Sched_sim.Trace.create () in
  Sched_sim.Trace.record t 0.5 (Sched_sim.Trace.Dispatch { job = 0; machine = 1 });
  Sched_sim.Trace.record t 0.5 (Sched_sim.Trace.Start { job = 0; machine = 1; speed = 1. });
  Sched_sim.Trace.record t 2.25
    (Sched_sim.Trace.Reject { job = 0; machine = 1; was_running = true; remaining = 0.75 });
  Sched_sim.Trace.record t 3. (Sched_sim.Trace.Restart { job = 2; machine = 0; wasted = 1.5 });
  Sched_sim.Trace.record t 4. (Sched_sim.Trace.Complete { job = 2; machine = 0 });
  let v1_lines = String.split_on_char '\n' (String.trim (Test_util.trace_ndjson t)) in
  let v2_lines = recorder_lines (five_kinds_recorder ()) in
  Alcotest.(check int) "same event count" (List.length v1_lines) (List.length v2_lines);
  List.iter2
    (fun v1 v2 ->
      let prefix = "{\"schema\":\"rejsched.trace/1\"," in
      Alcotest.(check bool) "v1 line shape" true (String.length v1 > String.length prefix + 1);
      let payload =
        String.sub v1 (String.length prefix) (String.length v1 - String.length prefix - 1)
      in
      if not (Test_util.contains v2 payload) then
        Alcotest.failf "/1 payload not embedded in /2 line:\n  /1: %s\n  /2: %s" payload v2)
    v1_lines v2_lines

let test_schema_tags_round_trip () =
  let rc = five_kinds_recorder () in
  List.iter
    (fun line ->
      match TE.schema_of_line line with
      | Some s -> Alcotest.(check string) "every /2 line tagged" "rejsched.trace/2" s
      | None -> Alcotest.failf "line lost its schema tag: %s" line)
    (recorder_lines rc);
  let t = Sched_sim.Trace.create () in
  Sched_sim.Trace.record t 1. (Sched_sim.Trace.Dispatch { job = 0; machine = 0 });
  Alcotest.(check (option string)) "/1 line tagged" (Some "rejsched.trace/1")
    (TE.schema_of_line (TE.entry_line (List.hd (Sched_sim.Trace.events t))));
  Alcotest.(check (option string)) "untagged json" None (TE.schema_of_line "{\"a\":1}");
  Alcotest.(check (option string)) "not json" None (TE.schema_of_line "plain text");
  Alcotest.(check (option string)) "empty" None (TE.schema_of_line "");
  Alcotest.(check (option string)) "unterminated tag" None
    (TE.schema_of_line "{\"schema\":\"rejsched.trace/2")

(* Non-finite payloads (a NaN score from a degenerate instance must not
   produce unparseable NDJSON): the exporter renders them as quoted
   sentinel tokens, never bare [nan]. *)
let test_non_finite_payloads () =
  let rc = Rec.create ~capacity:4 () in
  let b = Rec.reserve_start rc ~job:0 ~machine:0 in
  rc.Rec.floats.(b + Rec.o_time) <- Float.nan;
  rc.Rec.floats.(b + Rec.o_value) <- Float.infinity;
  rc.Rec.floats.(b + Rec.o_score) <- Float.neg_infinity;
  let line = String.trim (TE.recorder_to_ndjson rc) in
  Alcotest.(check string) "sentinel tokens"
    "{\"schema\":\"rejsched.trace/2\",\"seq\":0,\"time\":\"NaN\",\"event\":\"start\",\"job\":0,\"machine\":0,\"speed\":\"Infinity\",\"size\":\"-Infinity\"}"
    line;
  Alcotest.(check bool) "no bare nan" false (Test_util.contains line ":nan")

(* --- Chrome trace_event export ---------------------------------------- *)

let test_chrome_export_validates () =
  let inst = Test_util.random_instance ~seed:3 ~n:40 ~m:3 () in
  let rc = Rec.create ~capacity:1024 () in
  let entry = match P.find "flow-reject" with Some e -> e | None -> Alcotest.fail "registry" in
  ignore (entry.P.run ~recorder:rc inst);
  Alcotest.(check bool) "events recorded" true (Rec.total rc > 0);
  let doc = Sched_sim.Perfetto.to_chrome ~machines:(Instance.m inst) rc in
  (match Sched_sim.Perfetto.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "chrome export rejected by validator: %s" msg);
  Alcotest.(check bool) "traceEvents array" true (Test_util.contains doc "\"traceEvents\"");
  Alcotest.(check bool) "thread-name metadata" true
    (Test_util.contains doc "\"thread_name\"");
  Alcotest.(check bool) "complete slices" true (Test_util.contains doc "\"ph\":\"X\"")

let test_chrome_validate_rejects () =
  let bad doc =
    match Sched_sim.Perfetto.validate doc with
    | Ok () -> Alcotest.failf "validator accepted malformed document: %s" doc
    | Error _ -> ()
  in
  bad "not json";
  bad "{}";
  bad "{\"traceEvents\": 3}";
  bad "{\"traceEvents\": [{\"ph\": 5}]}";
  bad "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"span\", \"pid\": 0, \"tid\": 0, \"ts\": 1}]}"

(* --- Provenance reconciles with the driver ----------------------------- *)

let count kind es = List.length (List.filter (fun e -> e.Rec.kind = kind) es)

(* greedy-spt never rejects: every job dispatches once, starts once,
   completes once, and each dispatch's provenance is internally
   consistent (chosen machine inside the mask, cands counts its bits). *)
let test_run_reconciles_no_rejection () =
  let inst = Test_util.random_instance ~seed:11 ~n:60 ~m:3 () in
  let n = Instance.n inst in
  let entry = match P.find "greedy-spt" with Some e -> e | None -> Alcotest.fail "registry" in
  let rc = Rec.create ~capacity:1024 () in
  let s, lm = entry.P.run ~recorder:rc inst in
  Test_util.assert_audit ~what:"greedy-spt" entry s lm;
  let es = Rec.entries rc in
  Alcotest.(check int) "dispatches = n" n (count Rec.Dispatch es);
  Alcotest.(check int) "starts = n" n (count Rec.Start es);
  Alcotest.(check int) "completes = n" n (count Rec.Complete es);
  Alcotest.(check int) "no rejects" 0 (count Rec.Reject es);
  Alcotest.(check int) "no restarts" 0 (count Rec.Restart es);
  List.iter
    (fun e ->
      match e.Rec.kind with
      | Rec.Dispatch ->
          Alcotest.(check bool) "chosen machine eligible" true
            (e.Rec.aux land (1 lsl e.Rec.machine) <> 0);
          let rec bits x acc = if x = 0 then acc else bits (x land (x - 1)) (acc + 1) in
          Alcotest.(check int) "cands = popcount mask" (bits e.Rec.aux 0) e.Rec.flag;
          Alcotest.(check bool) "score >= pending work" true (e.Rec.score >= e.Rec.value)
      | Rec.Start -> Alcotest.(check bool) "positive rate" true (e.Rec.value > 0.)
      | Rec.Complete -> Alcotest.(check bool) "non-negative flow" true (e.Rec.value >= 0.)
      | _ -> ())
    es

(* flow-reject on the restricted corpus case rejects for real: the budget
   columns of the last reject entry must equal the run's final rejection
   metrics bit-for-bit (both use the post-accounting convention), and the
   rejected-so-far counter must step by one per reject. *)
let test_reject_budget_matches_metrics () =
  let case =
    match
      List.find_opt
        (fun c -> c.Sched_fuzz.Corpus.name = "restricted-flow-reject")
        (Sched_fuzz.Corpus.seeds ())
    with
    | Some c -> c
    | None -> Alcotest.fail "restricted-flow-reject seed case missing"
  in
  let entry = match P.find case.Sched_fuzz.Corpus.policy with
    | Some e -> e
    | None -> Alcotest.fail "case policy not registered"
  in
  let rc = Rec.create ~capacity:4096 () in
  let s, live = entry.P.run ~recorder:rc case.Sched_fuzz.Corpus.instance in
  Test_util.assert_audit ~what:case.Sched_fuzz.Corpus.name entry s live;
  let rejects = List.filter (fun e -> e.Rec.kind = Rec.Reject) (Rec.entries rc) in
  Alcotest.(check bool) "case rejects" true (rejects <> []);
  Alcotest.(check int) "reject entries = metric count"
    live.Sched_sim.Driver.rejection.Metrics.count (List.length rejects);
  List.iteri
    (fun i e -> Alcotest.(check int) "rejected-so-far steps by one" (i + 1) e.Rec.aux)
    rejects;
  let last = List.nth rejects (List.length rejects - 1) in
  Alcotest.(check int) "final counter" live.Sched_sim.Driver.rejection.Metrics.count last.Rec.aux;
  if not (Float.equal last.Rec.budget live.Sched_sim.Driver.rejection.Metrics.weight) then
    Alcotest.failf "final budget %.17g <> rejection weight %.17g" last.Rec.budget
      live.Sched_sim.Driver.rejection.Metrics.weight

let suite =
  [
    Alcotest.test_case "ring: create validation" `Quick test_ring_create_validation;
    Alcotest.test_case "ring: wrap and sliding window" `Quick test_ring_wrap;
    Alcotest.test_case "ring: slot sequence (pow2 and generic)" `Quick test_ring_slot_sequence;
    Alcotest.test_case "ring: a hold grows instead of wrapping" `Quick test_ring_hold_grows;
    test_hold_qcheck;
    Alcotest.test_case "recorder: reserve/decode round-trip" `Quick test_recorder_round_trip;
    Alcotest.test_case "recorder: wrap masks stale cells" `Quick
      test_recorder_wrap_masks_stale_cells;
    Alcotest.test_case "recorder: entries ?last" `Quick test_recorder_entries_last;
    Alcotest.test_case "recorder: default capacity pow2" `Quick test_recorder_default_capacity;
    Alcotest.test_case "trace/2 ndjson golden" `Quick test_recorder_ndjson_golden;
    Alcotest.test_case "trace/1 fields embedded in trace/2" `Quick test_v1_fields_embedded_in_v2;
    Alcotest.test_case "schema tags round-trip" `Quick test_schema_tags_round_trip;
    Alcotest.test_case "non-finite payloads export as tokens" `Quick test_non_finite_payloads;
    Alcotest.test_case "chrome export validates" `Quick test_chrome_export_validates;
    Alcotest.test_case "chrome validator rejects malformed" `Quick test_chrome_validate_rejects;
    Alcotest.test_case "run reconciles (no rejection)" `Quick test_run_reconciles_no_rejection;
    Alcotest.test_case "reject budget matches metrics" `Quick test_reject_budget_matches_metrics;
  ]
