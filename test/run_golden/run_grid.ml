(* Behaviour pin for [rejsched run]: the six -w families x the seven -p
   names at m in {3, 70}, n = 200, one fixed seed.  Per configuration it
   prints the [--csv] table verbatim and the digest and line count of the
   [--trace-ndjson] file, then reruns with [--segments FILE] (the path
   that materializes the schedule) and reports any difference between the
   two runs' tables or traces.  At m = 3 it also runs with both
   [--telemetry -] and [--trace-ndjson -] and checks that stdout is the
   telemetry snapshot, then the trace lines, then the table; and per
   family it round-trips the instance through [--save] and [--load].
   Last comes one wide fleet, uniform x {thm1, fifo} at m = 512,
   n = 2000: the per-arrival scans over every machine at the width
   [rejsched run] is benchmarked at.
   [run.expected] is this program's output; the dune rule next to it
   diffs a fresh run against it on every [dune runtest].

   Usage: run_grid.exe REJSCHED *)

let families = [ "uniform"; "pareto"; "bimodal"; "restricted"; "related"; "clustered" ]
let policies = [ "thm1"; "thm1-rule1"; "thm1-rule2"; "fifo"; "spt"; "immediate"; "esa" ]
let machines = [ 3; 70 ]
let n = 200
let wide_policies = [ "thm1"; "fifo" ]
let wide_m = 512
let wide_n = 2000
let seed = 11

let read_file path = In_channel.with_open_bin path In_channel.input_all
let hex s = Digest.to_hex (Digest.string s)
let lines s = List.length (String.split_on_char '\n' s) - 1

let tmp suffix = Filename.temp_file "run_grid" suffix

(* Runs the binary with [args], stdout to a fresh file; returns the exit
   code and stdout's bytes. *)
let run exe args =
  let out = tmp ".out" in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote (exe :: args)) ^ " > " ^ Filename.quote out)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

(* The flat loop's minor-words counter depends on the build profile and
   on allocation inside the loop, not on the schedule. *)
let drop_minor_words text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         not
           (let key = "sched_flat_loop_minor_words_total" in
            let kl = String.length key and ll = String.length l in
            let rec has k = k + kl <= ll && (String.sub l k kl = key || has (k + 1)) in
            has 0))
  |> String.concat "\n"

let base ~n ~w ~p ~m =
  [ "run"; "-w"; w; "-p"; p; "-n"; string_of_int n; "-m"; string_of_int m; "--seed";
    string_of_int seed; "--csv" ]

let config exe ~n ~w ~p ~m =
  Printf.printf "== %s %s m=%d\n" w p m;
  let trace = tmp ".ndjson" in
  let code, csv = run exe (base ~n ~w ~p ~m @ [ "--trace-ndjson"; trace ]) in
  let tr = read_file trace in
  Printf.printf "exit %d\n%strace1 %s %d\n" code csv (hex tr) (lines tr);
  let segs = tmp ".csv" in
  let code', csv' = run exe (base ~n ~w ~p ~m @ [ "--trace-ndjson"; trace; "--segments"; segs ]) in
  let tr' = read_file trace in
  if code' <> code || csv' <> csv || tr' <> tr then print_endline "MISMATCH with --segments";
  Printf.printf "segments %s\n" (hex (read_file segs));
  Sys.remove segs;
  if m = 3 then begin
    let code'', out = run exe (base ~n ~w ~p ~m @ [ "--telemetry"; "-"; "--trace-ndjson"; "-" ]) in
    let tl = String.length tr and cl = String.length csv and ol = String.length out in
    let ordered =
      code'' = code && ol >= tl + cl
      && String.sub out (ol - cl) cl = csv
      && String.sub out (ol - cl - tl) tl = tr
    in
    Printf.printf "stdout %s %s\n"
      (if ordered then "telemetry,trace,table" else "MISORDERED")
      (hex (drop_minor_words out))
  end;
  Sys.remove trace

let round_trip exe ~w ~m =
  let inst = tmp ".txt" in
  let args = [ "run"; "-w"; w; "-n"; string_of_int n; "-m"; string_of_int m; "--seed";
               string_of_int seed; "--csv" ] in
  let _, generated = run exe (args @ [ "--save"; inst ]) in
  let _, loaded = run exe [ "run"; "--load"; inst; "-n"; string_of_int n; "-m"; string_of_int m;
                            "--seed"; string_of_int seed; "-w"; w; "--csv" ] in
  Printf.printf "== save/load %s m=%d\nsaved %s %s\n" w m (hex (read_file inst))
    (if generated = loaded then "load-identical" else "LOAD-DIFFERS");
  Sys.remove inst

let () =
  let exe = if Array.length Sys.argv > 1 then Sys.argv.(1) else "rejsched" in
  List.iter
    (fun m ->
      List.iter
        (fun w ->
          List.iter (fun p -> config exe ~n ~w ~p ~m) policies;
          round_trip exe ~w ~m)
        families)
    machines;
  List.iter (fun p -> config exe ~n:wide_n ~w:"uniform" ~p ~m:wide_m) wide_policies
