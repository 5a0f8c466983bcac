(* Behaviour pin: every checked-in fuzz-corpus case under every registry
   policy, one line each — the canonical schedule's digest, the flight
   recorder's trace/2 NDJSON digest, every live-metrics field printed
   exactly ([%h] for floats), and from a second, streamed run of the same
   jobs the trace/1 NDJSON digest and the six sched_*_total counters.
   Every batch run must pass [Policy_registry.audit], or the program
   fails.  [golden.expected] is this program's output; the dune rule
   next to it diffs a fresh run against it on every [dune runtest].
   Re-bless an intended change with [dune promote].

   Usage: golden.exe CORPUS_DIR *)

open Sched_model
open Sched_sim
module P = Sched_experiments.Policy_registry
module Corpus = Sched_fuzz.Corpus
module Rec = Sched_obs.Recorder
module Obs = Sched_obs.Obs

let read_file path = In_channel.with_open_bin path In_channel.input_all
let hex s = Digest.to_hex (Digest.string s)

let trace_ndjson t =
  let buf = Buffer.create 4096 in
  Trace_export.add_lines buf t;
  Buffer.contents buf

let load dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Corpus.parse (read_file (Filename.concat dir f)) with
         | Ok c -> c
         | Error e -> failwith (Printf.sprintf "%s: %s" f e))

let counters = [ "dispatch"; "start"; "complete"; "reject"; "reject_midrun"; "restart" ]

(* The streamed run: a session with a trace and telemetry attached, fed
   every job in release order, then closed. *)
let streamed (c : Corpus.case) (e : P.entry) =
  let inst = c.Corpus.instance in
  let trace = Trace.create () and obs = Obs.create () in
  let s =
    e.P.open_stream ~trace ~obs ~name:inst.Instance.name ~machines:inst.Instance.machines ()
  in
  Array.iter s.P.ss_feed (Instance.jobs_by_release inst);
  ignore (s.P.ss_close ());
  let reg = Obs.registry obs in
  let counter k =
    match Sched_obs.Registry.find reg ~name:("sched_" ^ k ^ "_total") ~labels:[] with
    | Some { Sched_obs.Registry.instrument = Sched_obs.Registry.Counter c; _ } ->
        Printf.sprintf "%s=%.0f" k (Sched_obs.Metric.Counter.value c)
    | _ -> failwith (Printf.sprintf "%s/%s: no sched_%s_total" c.Corpus.name e.P.name k)
  in
  Printf.sprintf "trace1=%s %s"
    (hex (trace_ndjson trace))
    (String.concat " " (List.map counter counters))

let line (c : Corpus.case) (e : P.entry) =
  let inst = c.Corpus.instance in
  let recorder = Rec.create ~capacity:65536 () in
  let s, lm = e.P.run ~recorder inst in
  if Rec.dropped recorder <> 0 then
    failwith (Printf.sprintf "%s/%s: recorder dropped entries" c.Corpus.name e.P.name);
  (match P.audit e s lm with
  | [] -> ()
  | vs ->
      failwith
        (Printf.sprintf "%s/%s: %s" c.Corpus.name e.P.name (Sched_check.Oracle.report vs)));
  let f = lm.Driver.flow and r = lm.Driver.rejection in
  Printf.sprintf
    "%s %s schedule=%s trace2=%s flow=%h wflow=%h flow_rej=%h wflow_rej=%h max_flow=%h \
     mean_flow=%h max_stretch=%h energy=%h rejected=%d rej_frac=%h rej_weight=%h \
     rej_weight_frac=%h mid_run=%d makespan=%h %s"
    c.Corpus.name e.P.name
    (hex (Serialize.schedule_to_canonical_string s))
    (hex (Trace_export.recorder_to_ndjson recorder))
    f.Metrics.total f.Metrics.weighted f.Metrics.total_with_rejected
    f.Metrics.weighted_with_rejected f.Metrics.max_flow f.Metrics.mean_flow
    f.Metrics.max_stretch lm.Driver.energy r.Metrics.count r.Metrics.fraction r.Metrics.weight
    r.Metrics.weight_fraction r.Metrics.mid_run lm.Driver.makespan (streamed c e)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  List.iter (fun c -> List.iter (fun e -> print_endline (line c e)) P.all) (load dir)
