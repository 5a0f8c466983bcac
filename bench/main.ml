(* Benchmark harness.

   Part 1 regenerates every experiment table of the reproduction (E1..E9,
   the paper's Theorems 1-3 and Lemmas 1-2 plus the analysis machinery) at
   full scale — these are the "tables and figures" recorded in
   EXPERIMENTS.md.

   Part 2 runs one Bechamel micro-benchmark per experiment's core
   computation, plus a simulator-throughput benchmark (E10).

   Part 3 (selected with --regression, output file via --out, default
   BENCH_pr12.json) is the regression harness behind `make bench-check`.
   Every section ends in a gate or a byte-identity fail-fast:

   - an oracle fuzz pre-flight, clean and byte-identical at pool widths
     1, 2 and 4;
   - the driver-event microbenchmark: indexed pending queues >= 2x the
     scan-based seed references, bare and with telemetry recording;
   - the flat core: >= 2x the PR-4 recorded events/sec and an
     allocations-per-event ceiling;
   - the flight recorder: <= 5% overhead on flow-reject, schedules
     byte-identical with the recorder on or off;
   - domain-pool scaling on the experiment suite: tables and telemetry
     byte-identical at every width, width 1 <= 2x sequential, and (on
     hosts with >= 4 recommended domains) 4 domains >= 2x sequential;
   - a memory-gated cluster-scale point (n=10^6 x m=10^3, skipped in
     quick mode);
   - the streaming session engine behind `rejsched serve`: stream vs
     batch byte-identity over the fuzz corpus, session overhead, and a
     resident-memory gate on an n=10^6 rolling-retirement stream.

   It records GC work next to every events/sec figure, writes the numbers
   to a JSON baseline, and compares the driver-event throughput against
   the newest previous BENCH_prN.json (largest N).  Exits non-zero on any
   failed gate.

   Run with: dune exec bench/main.exe
   (set REJSCHED_QUICK=1 for a fast smoke run) *)

open Bechamel
open Toolkit

let quick = Sys.getenv_opt "REJSCHED_QUICK" <> None

(* ------------------------------------------------------------------ *)
(* Part 1: experiment tables                                           *)

let run_experiments () =
  List.iter
    (fun (e, tables) ->
      Printf.printf "[%s] %s (reproduces: %s)\n" e.Sched_experiments.Registry.id
        e.Sched_experiments.Registry.title e.Sched_experiments.Registry.reproduces;
      List.iter Sched_stats.Table.print tables)
    (Sched_experiments.Registry.run_all ~quick ~pool:(Sched_stats.Pool.default ()) ())

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                   *)

let make_flow_instance n m seed =
  Sched_workload.Gen.instance (Sched_workload.Suite.flow_pareto ~n ~m) ~seed

let bench_tests () =
  let module FR = Rejection.Flow_reject in
  let module FE = Rejection.Flow_energy_reject in
  let flow_inst = make_flow_instance 1000 8 1 in
  let flow_small = make_flow_instance 200 4 1 in
  let weighted =
    Sched_workload.Gen.instance (Sched_workload.Suite.weighted_energy ~n:300 ~m:4 ~alpha:3.) ~seed:1
  in
  let deadline =
    Sched_workload.Gen.instance (Sched_workload.Suite.deadline_energy ~n:40 ~m:2 ~alpha:3.) ~seed:1
  in
  let throughput_inst = make_flow_instance (if quick then 10_000 else 50_000) 16 2 in
  [
    Test.make ~name:"e1:thm1-flow n=1000 m=8"
      (Staged.stage (fun () -> ignore (FR.run (FR.config ~eps:0.25 ()) flow_inst)));
    Test.make ~name:"e2:lemma1-adversary L=16"
      (Staged.stage (fun () ->
           let run i = fst (FR.run (FR.config ~eps:0.2 ()) i) in
           ignore (Sched_workload.Adversary_flow.run_two_phase ~run ~eps:0.2 ~l:16.)));
    Test.make ~name:"e3:thm2-flow+energy n=300 m=4"
      (Staged.stage (fun () -> ignore (FE.run (FE.config ~eps:0.25 ()) weighted)));
    Test.make ~name:"e4:thm3-energy-greedy n=40 m=2"
      (Staged.stage (fun () -> ignore (Rejection.Energy_config_greedy.run deadline)));
    Test.make ~name:"e5:lemma2-adversary alpha=4"
      (Staged.stage (fun () ->
           let st = Rejection.Energy_config_greedy.continuous ~alpha:4. () in
           let alg =
             {
               Sched_workload.Adversary_energy.name = "greedy";
               place =
                 (fun ~release ~deadline ~volume ->
                   Rejection.Energy_config_greedy.continuous_place st ~release ~deadline ~volume);
             }
           in
           ignore (Sched_workload.Adversary_energy.run ~alpha:4. alg)));
    Test.make ~name:"e6:dual-certificate n=200"
      (Staged.stage (fun () ->
           let trace = Sched_sim.Trace.create () in
           let schedule, st = FR.run ~trace (FR.config ~eps:0.25 ()) flow_small in
           ignore
             (Sched_lp.Dual_fit.certify ~eps:(FR.effective_eps st) ~lambdas:(FR.lambdas st)
                flow_small trace schedule)));
    Test.make ~name:"e7:smoothness lambda-search"
      (Staged.stage (fun () ->
           let rng = Sched_stats.Rng.create 1 in
           ignore
             (Sched_energy.Smooth.required_lambda ~trials:200
                (Sched_energy.Power.polynomial ~alpha:3.)
                ~mu:(2. /. 3.) rng)));
    Test.make ~name:"e8:thm1-rule2-only n=1000"
      (Staged.stage (fun () -> ignore (FR.run (FR.config ~eps:0.25 ~rule1:false ()) flow_inst)));
    Test.make ~name:"e9:speed-augmented n=1000"
      (Staged.stage (fun () ->
           ignore (Sched_baselines.Speed_augmented.run ~eps_s:0.5 ~eps_r:0.25 flow_inst)));
    Test.make ~name:"e10:driver-throughput n=50k m=16"
      (Staged.stage (fun () -> ignore (FR.run (FR.config ~eps:0.25 ()) throughput_inst)));
    Test.make ~name:"aux:local-search n=120"
      (Staged.stage (fun () ->
           let inst = make_flow_instance 120 3 5 in
           ignore (Sched_baselines.Local_search.improve inst)));
    Test.make ~name:"aux:oa-online n=200"
      (Staged.stage (fun () ->
           let inst =
             Sched_workload.Gen.instance
               (Sched_workload.Suite.deadline_energy ~n:200 ~m:1 ~alpha:3.)
               ~seed:3
           in
           ignore (Sched_energy.Oa.energy ~alpha:3. (Sched_energy.Yds.of_instance inst ~machine:0))));
    Test.make ~name:"aux:swf-parse"
      (Staged.stage (fun () -> ignore (Sched_workload.Swf.parse ~m:4 Sched_workload.Swf.example)));
  ]

let run_benchmarks () =
  let tests = bench_tests () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.2 else 1.0))
      ~stabilize:false ()
  in
  Printf.printf "\n== Bechamel micro-benchmarks (monotonic clock) ==\n%!";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-36s %12.3f ms/run\n%!" name (est /. 1e6)
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Part 3: regression harness (--regression)                           *)

let wall = Unix.gettimeofday

let time_wall f =
  let t0 = wall () in
  let x = f () in
  (x, wall () -. t0)

let best_of reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let _, dt = time_wall f in
    if dt < !best then best := dt
  done;
  !best

(* GC work per measured run: [Gc.quick_stat] deltas captured around one
   representative execution.  Collection counts and minor words are a
   property of the run shape, not of wall-clock noise, so a single
   sample suffices; a delta rides next to every events/sec figure in
   the JSON baseline so a throughput regression can be told apart as
   "more allocation" versus "slower code" (the diagnosis the PR-6
   pool-scaling numbers lacked — see the pool_scaling note below). *)
type gc_delta = { gc_minor : int; gc_major : int; gc_minor_words : float }

let gc_of f =
  let s0 = Gc.quick_stat () in
  f ();
  let s1 = Gc.quick_stat () in
  {
    gc_minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
    gc_major = s1.Gc.major_collections - s0.Gc.major_collections;
    gc_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
  }

(* Like [time_wall] but also captures the GC delta of the same run. *)
let time_gc f =
  let s0 = Gc.quick_stat () in
  let t0 = wall () in
  let x = f () in
  let dt = wall () -. t0 in
  let s1 = Gc.quick_stat () in
  ( x,
    dt,
    {
      gc_minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
      gc_major = s1.Gc.major_collections - s0.Gc.major_collections;
      gc_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    } )

let bprintf_gc buf ~indent ~key g =
  Printf.bprintf buf
    "%s\"%s\": {\"minor_collections\": %d, \"major_collections\": %d, \"minor_words\": %.0f},\n"
    indent key g.gc_minor g.gc_major g.gc_minor_words

(* An overloaded burst instance: releases compressed into a short prefix so
   per-machine pending queues grow to Theta(n/m) — the regime where the
   indexed queues beat the seed's linear scans.  All values are dyadic
   (multiples of 1/4) so incremental and scan-based float accumulations are
   exact and the optimized/reference cross-check below can demand byte
   equality, mirroring the differential tests. *)
let burst_instance ~n ~m ~seed =
  let rng = Sched_stats.Rng.create seed in
  let quarters lo count = lo +. (0.25 *. float_of_int (Sched_stats.Rng.int rng count)) in
  let machines = Sched_model.Machine.fleet m in
  let jobs =
    List.init n (fun id ->
        let release = quarters 0. (max 1 (n / 8)) in
        let weight = quarters 0.25 8 in
        let sizes = Array.init m (fun _ -> quarters 0.5 15) in
        Sched_model.Job.create ~id ~release ~weight ~sizes ())
  in
  Sched_model.Instance.create
    ~name:(Printf.sprintf "burst-n%d-m%d-s%d" n m seed)
    ~machines ~jobs ()

(* One arrival per job plus a start and a finish per laid segment. *)
let count_events (s : Sched_model.Schedule.t) =
  Sched_model.Instance.n s.Sched_model.Schedule.instance
  + (2 * List.length s.Sched_model.Schedule.segments)

(* Newest previous baseline: the BENCH_prN.json with the largest PR
   number N (compared as an integer, so pr10 outranks pr9). *)
let newest_baseline ~excluding =
  let pr_number f =
    if
      f <> excluding
      && f <> Filename.basename excluding
      && String.length f > 8
      && String.sub f 0 8 = "BENCH_pr"
      && Filename.check_suffix f ".json"
    then int_of_string_opt (String.sub f 8 (String.length f - 13))
    else None
  in
  Array.fold_left
    (fun best f ->
      match (pr_number f, best) with
      | Some n, Some (bn, _) when n <= bn -> best
      | Some n, _ -> Some (n, f)
      | None, _ -> best)
    None (Sys.readdir ".")
  |> Option.map snd

(* Pull one scalar field ("key": value) out of a baseline file without a
   JSON parser; returns the raw token after the colon. *)
let scan_json_field ~key content =
  let needle = Printf.sprintf "\"%s\":" key in
  let nlen = String.length needle and clen = String.length content in
  let rec find i =
    if i + nlen > clen then None
    else if String.sub content i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
      let rec skip k = if k < clen && content.[k] = ' ' then skip (k + 1) else k in
      let start = skip j in
      let rec stop k =
        if k >= clen then k
        else match content.[k] with ',' | '\n' | '}' | ' ' -> k | _ -> stop (k + 1)
      in
      let fin = stop start in
      if fin > start then Some (String.sub content start (fin - start)) else None

(* MemAvailable from /proc/meminfo in GiB, 0 when unreadable.  Gates the
   cluster-scale point: its instance alone carries n*m = 10^9
   processing times (~8 GiB) and the flat core mirrors per-(machine,job)
   columns of the same extent, so the point needs ~25-30 GiB to run
   without thrashing. *)
let mem_available_gib () =
  match In_channel.with_open_text "/proc/meminfo" In_channel.input_all with
  | exception _ -> 0.
  | content ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | [ "MemAvailable:"; kb; "kB" ] -> (
              match float_of_string_opt kb with
              | Some v -> v /. (1024. *. 1024.)
              | None -> acc)
          | _ -> acc)
        0.
        (String.split_on_char '\n' content)

let run_regression out_path =
  let module PR = Sched_experiments.Policy_registry in
  let module SR = Sched_baselines.Seed_reference in
  let module D = Sched_sim.Driver in
  let buf = Buffer.create 2048 in
  let reps = if quick then 1 else 3 in
  Printf.printf "== Regression harness (quick=%b, reps=%d) ==\n%!" quick reps;

  (* 3-pre: oracle fuzz pre-flight.  A short coverage-guided fuzz of the
     whole registry must come back clean, and its report must be
     byte-identical at pool widths 1, 2 and 4 — the determinism contract
     the parallel path claims, now checked against the oracle rather than
     just against itself. *)
  let fuzz_budget = if quick then 32 else 96 in
  let fuzz_cfg = Sched_fuzz.Fuzz.config ~budget:fuzz_budget ~seed:7 () in
  let fuzz_run d =
    Sched_stats.Pool.with_pool ~domains:d (fun pool -> Sched_fuzz.Fuzz.run ~pool fuzz_cfg)
  in
  let fuzz_widths = [ 1; 2; 4 ] in
  let fuzz_head = fuzz_run 1 in
  let fuzz_base = Sched_fuzz.Fuzz.report_to_string fuzz_head in
  List.iter
    (fun d ->
      if Sched_fuzz.Fuzz.report_to_string (fuzz_run d) <> fuzz_base then begin
        Printf.eprintf "FAIL: fuzz report at domains=%d differs from width 1\n%!" d;
        exit 1
      end)
    (List.filter (fun d -> d <> 1) fuzz_widths);
  if fuzz_head.Sched_fuzz.Fuzz.failures <> [] then begin
    Printf.eprintf "FAIL: fuzz pre-flight found violations:\n%s%!" fuzz_base;
    exit 1
  end;
  Printf.printf "  fuzz pre-flight: %s" fuzz_base;
  Printf.printf "  fuzz pre-flight byte-identical at widths %s\n%!"
    (String.concat "," (List.map string_of_int fuzz_widths));

  (* 3a: driver-event microbenchmark, indexed vs seed scans, n >= 10k. *)
  let n = 10_000 and m = 8 in
  let inst = burst_instance ~n ~m ~seed:7 in
  let spt = Option.get (PR.find "greedy-spt") in
  let schedule_of policy =
    let s, _, _ = D.run policy inst in
    s
  in
  let s_opt = fst (spt.PR.run inst) in
  let s_ref = schedule_of SR.greedy_spt in
  if
    Sched_model.Serialize.schedule_to_string s_opt
    <> Sched_model.Serialize.schedule_to_string s_ref
  then begin
    prerr_endline "FAIL: optimized greedy-spt diverges from seed reference on burst instance";
    exit 1
  end;
  let events = count_events s_opt in
  let t_opt = best_of reps (fun () -> ignore (spt.PR.run inst)) in
  let t_ref = best_of 1 (fun () -> ignore (D.run SR.greedy_spt inst)) in
  let gc_opt = gc_of (fun () -> ignore (spt.PR.run inst)) in
  let gc_ref = gc_of (fun () -> ignore (D.run SR.greedy_spt inst)) in
  let speedup = t_ref /. t_opt in
  Printf.printf
    "  driver events (greedy-spt, n=%d m=%d): indexed %.0f ev/s, seed scans %.0f ev/s, speedup %.1fx\n%!"
    n m
    (float_of_int events /. t_opt)
    (float_of_int events /. t_ref)
    speedup;

  (* 3a': the same run with the telemetry layer recording (counters, gauges
     and phase spans).  Observability must neither change the schedule nor
     eat the indexed win: the telemetry-on run is held to the same 2x gate
     against the seed scans.  One instrumented run's counter snapshot is
     embedded in the JSON baseline below. *)
  let obs = Sched_obs.Obs.timed () in
  let s_tel, _, _ = D.run ~obs Sched_baselines.Greedy_dispatch.spt inst in
  if
    Sched_model.Serialize.schedule_to_string s_tel
    <> Sched_model.Serialize.schedule_to_string s_opt
  then begin
    prerr_endline "FAIL: telemetry-instrumented greedy-spt diverges from the bare run";
    exit 1
  end;
  let t_tel =
    best_of reps (fun () ->
        ignore (D.run ~obs:(Sched_obs.Obs.timed ()) Sched_baselines.Greedy_dispatch.spt inst))
  in
  let gc_tel =
    gc_of (fun () ->
        ignore (D.run ~obs:(Sched_obs.Obs.timed ()) Sched_baselines.Greedy_dispatch.spt inst))
  in
  let tel_speedup = t_ref /. t_tel in
  Printf.printf
    "  with telemetry: indexed %.0f ev/s, overhead %.2fx over bare, speedup vs seed %.1fx\n%!"
    (float_of_int events /. t_tel)
    (t_tel /. t_opt) tel_speedup;

  (* 3a'': the flat (struct-of-arrays) core on the same burst workload.
     Two gates: it clears 2x the events/sec recorded in BENCH_pr4.json,
     and the steady state stays under an allocations-per-event ceiling
     read back from the driver's own [Gc.minor_words] loop counters. *)
  let flat_run () = ignore (D.run Sched_baselines.Greedy_dispatch.spt inst) in
  let s_flat = schedule_of Sched_baselines.Greedy_dispatch.spt in
  let t_flat = best_of reps flat_run in
  let gc_flat = gc_of flat_run in
  let flat_eps = float_of_int events /. t_flat in
  (* The PR-4 recorded throughput this PR promises to double.  Read from
     the checked-in baseline; the literal is the recorded value, kept as
     a fallback so a missing file cannot silently weaken the gate. *)
  let pr4_indexed_events_per_sec =
    let recorded = 489483.7 in
    if Sys.file_exists "BENCH_pr4.json" then
      let content = In_channel.with_open_text "BENCH_pr4.json" In_channel.input_all in
      match scan_json_field ~key:"indexed_events_per_sec" content with
      | Some s -> ( match float_of_string_opt s with Some v -> v | None -> recorded)
      | None -> recorded
    else recorded
  in
  let flat_gain = flat_eps /. pr4_indexed_events_per_sec in
  (* Allocations per event: one instrumented flat run; the driver wraps
     its event loop in a [Gc.minor_words] delta and exports both the
     words and the event count as counters. *)
  let flat_registry = Sched_obs.Registry.create () in
  let flat_obs = Sched_obs.Obs.create ~registry:flat_registry () in
  ignore (D.run ~obs:flat_obs Sched_baselines.Greedy_dispatch.spt inst);
  let counter name =
    Sched_obs.Metric.Counter.value (Sched_obs.Registry.counter flat_registry name)
  in
  let flat_words = counter "sched_flat_loop_minor_words_total" in
  let flat_loop_events = counter "sched_flat_loop_events_total" in
  let allocs_per_event = if flat_loop_events > 0. then flat_words /. flat_loop_events else 0. in
  (* ~137 words/event measured on this overloaded burst with telemetry
     attached (the residue is the policy-facing interface plus the
     instrumented run's per-phase timing closures, not driver state);
     boxing the hot floats again adds tens of words per event, so 160
     still catches any real regression.  dune runtest pins tighter
     gates (80/100) on bare-loop instances. *)
  let allocs_per_event_gate = 160.0 in
  Printf.printf "  flat core: %.0f ev/s, %.2fx over PR-4 baseline %.0f ev/s, %.1f words/event\n%!"
    flat_eps flat_gain pr4_indexed_events_per_sec allocs_per_event;

  (* 3a''': the flat core with the flight recorder attached — the PR-8
     tentpole.  Two measurements share one forensics-grade ring (4096
     rows, the capacity the fuzzer's failure dumps use; preallocated
     outside every timed closure, so this is the steady-state write
     cost, not setup):

     - greedy-spt on the burst instance: byte-identity recorder-on vs
       recorder-off, plus an informational overhead ratio.  The
       recorder's fixed cost is a few tens of ns/event, which against
       this policy's very light per-event baseline sits near the 5%
       line — inside the gate in expectation but inside this host's
       noise band too, so it is reported, not gated.
     - flow-reject, the paper's algorithm (dispatch, start, complete,
       reject and the budget column all exercised): the hard <= 5% gate
       rides here. *)
  let recorder = Sched_obs.Recorder.create ~capacity:4096 () in
  let recorder_capacity = Sched_obs.Recorder.capacity recorder in
  let s_rec, _, _ = D.run ~recorder Sched_baselines.Greedy_dispatch.spt inst in
  if
    Sched_model.Serialize.schedule_to_canonical_string s_rec
    <> Sched_model.Serialize.schedule_to_canonical_string s_flat
  then begin
    prerr_endline "FAIL: recorder-on flat run diverges from the recorder-off schedule";
    exit 1
  end;
  let recorder_events = Sched_obs.Recorder.total recorder in
  (* Interleaved best-of: the on/off runs alternate so clock drift and
     noisy-neighbour slowdowns hit both sides of the ratio equally —
     back-to-back blocks would let a frequency dip land on one side. *)
  let rec_reps = max reps 7 in
  let t_norec = ref infinity and t_rec = ref infinity in
  for _ = 1 to rec_reps do
    let dt_off = best_of 1 flat_run in
    if dt_off < !t_norec then t_norec := dt_off;
    let dt_on =
      best_of 1 (fun () ->
          ignore (D.run ~recorder Sched_baselines.Greedy_dispatch.spt inst))
    in
    if dt_on < !t_rec then t_rec := dt_on
  done;
  let t_norec = !t_norec and t_rec = !t_rec in
  let gc_rec_on =
    gc_of (fun () ->
        ignore (D.run ~recorder Sched_baselines.Greedy_dispatch.spt inst))
  in
  let rec_overhead_spt = t_rec /. t_norec in
  Printf.printf
    "  flight recorder (greedy-spt, informational): %.0f ev/s on (%.0f ev/s off), overhead %.3fx, \
     %d events/run recorded\n\
     %!"
    (float_of_int events /. t_rec)
    (float_of_int events /. t_norec)
    rec_overhead_spt recorder_events;
  (* The gated measurement.  Estimator: order-alternated pairs, median
     of per-pair ratios.  Adjacent runs see the same machine state, so a
     frequency dip cancels inside each pair; alternating which side runs
     first cancels warm-up bias; the median throws away the pairs a
     noisy neighbour landed on.  Plain best-of-N minima were measured
     flaking both directions (ratios 0.92-1.25 for identical code) on a
     busy host. *)
  let fr_gate = Option.get (PR.find "flow-reject") in
  let fr_off () = ignore (fr_gate.PR.run inst) in
  let fr_on () = ignore (fr_gate.PR.run ~recorder inst) in
  let s_fr_off = fst (fr_gate.PR.run inst) in
  let s_fr_on = fst (fr_gate.PR.run ~recorder inst) in
  if
    Sched_model.Serialize.schedule_to_canonical_string s_fr_on
    <> Sched_model.Serialize.schedule_to_canonical_string s_fr_off
  then begin
    prerr_endline "FAIL: recorder-on flow-reject run diverges from the recorder-off schedule";
    exit 1
  end;
  let fr_gate_events = count_events s_fr_off in
  let rec_pairs = max ((4 * reps) + 1) 13 in
  let rec_ratios = Array.make rec_pairs 0. in
  let t_fr_norec = ref infinity and t_fr_rec = ref infinity in
  for p = 0 to rec_pairs - 1 do
    let dt_off, dt_on =
      if p land 1 = 0 then
        let a = best_of 1 fr_off in
        (a, best_of 1 fr_on)
      else
        let b = best_of 1 fr_on in
        (best_of 1 fr_off, b)
    in
    if dt_off < !t_fr_norec then t_fr_norec := dt_off;
    if dt_on < !t_fr_rec then t_fr_rec := dt_on;
    rec_ratios.(p) <- dt_on /. dt_off
  done;
  Array.sort Float.compare rec_ratios;
  let gc_fr_off = gc_of fr_off in
  let gc_fr_on = gc_of fr_on in
  let rec_overhead = rec_ratios.(rec_pairs / 2) in
  let rec_overhead_gate = 1.05 in
  Printf.printf
    "  flight recorder (flow-reject, gated): %.0f ev/s on (%.0f ev/s off), overhead %.3fx median \
     of %d pairs\n\
     %!"
    (float_of_int fr_gate_events /. !t_fr_rec)
    (float_of_int fr_gate_events /. !t_fr_norec)
    rec_overhead rec_pairs;

  (* 3e: domain-pool scaling on the experiment suite.  The suite is the
     pool's real workload — run_all fans experiments out as tasks and
     per-seed replication shares the same pool — so this is the scaling
     curve the PR claims.  Every width must reproduce the sequential
     tables and merged telemetry byte for byte; wall times go into the
     JSON baseline. *)
  let suite_ids = [ "e1"; "e2"; "e7"; "e13" ] in
  let suite_csv tables =
    String.concat ""
      (List.concat_map (fun (_, ts) -> List.map Sched_stats.Table.to_csv ts) tables)
  in
  let sum_sched_counters registry =
    List.fold_left
      (fun acc e ->
        match e.Sched_obs.Registry.instrument with
        | Sched_obs.Registry.Counter c
          when String.length e.Sched_obs.Registry.name >= 6
               && String.sub e.Sched_obs.Registry.name 0 6 = "sched_" ->
            acc +. Sched_obs.Metric.Counter.value c
        | _ -> acc)
      0.
      (Sched_obs.Registry.entries registry)
  in
  let run_suite pool =
    let registry = Sched_obs.Registry.create () in
    let obs = Sched_obs.Obs.create ~registry () in
    let tables, dt, gc =
      time_gc (fun () ->
          Sched_experiments.Registry.run_all ~quick:true ~obs ~only:suite_ids ?pool ())
    in
    (suite_csv tables, Sched_obs.Export.json registry, sum_sched_counters registry, dt, gc)
  in
  let seq_csv, seq_json, suite_events, t_suite_seq, gc_suite_seq = run_suite None in
  Printf.printf "  suite scaling (%s): sequential %.3f s (%.0f driver events)\n%!"
    (String.concat "," suite_ids) t_suite_seq suite_events;
  let recommended = Domain.recommended_domain_count () in
  let widths = List.sort_uniq Int.compare [ 1; 2; 4; recommended ] in
  let pool_times =
    List.map
      (fun d ->
        let csv, json, _, dt, gc =
          Sched_stats.Pool.with_pool ~domains:d (fun pool -> run_suite (Some pool))
        in
        if csv <> seq_csv then begin
          Printf.eprintf "FAIL: suite tables at domains=%d differ from sequential\n%!" d;
          exit 1
        end;
        if json <> seq_json then begin
          Printf.eprintf "FAIL: merged telemetry at domains=%d differs from sequential\n%!" d;
          exit 1
        end;
        Printf.printf "  suite scaling: domains=%d -> %.3f s (%.2fx vs sequential)\n%!" d dt
          (t_suite_seq /. dt);
        (d, dt, gc))
      widths
  in

  (* 3f: the cluster-scale point (n=10^6, m=10^3): flow-reject at full
     size on the sequential core.  Memory-gated on MemAvailable and
     skipped in quick mode. *)
  let fr_cl = Option.get (PR.find "flow-reject") in
  let cluster_mem_need_gib = 34. in
  let mem_gib = mem_available_gib () in
  let cluster_point =
    if quick then Error "quick mode"
    else if mem_gib < cluster_mem_need_gib then
      Error (Printf.sprintf "MemAvailable %.1f GiB < %.0f GiB" mem_gib cluster_mem_need_gib)
    else begin
      let cn = 1_000_000 and cm = 1_000 in
      Printf.printf "  cluster-scale point: generating n=%d m=%d (MemAvailable %.0f GiB)...\n%!"
        cn cm mem_gib;
      let big_inst, t_gen =
        time_wall (fun () ->
            Sched_workload.Gen.instance (Sched_workload.Suite.flow_uniform ~n:cn ~m:cm) ~seed:11)
      in
      let lb = (Sched_baselines.Lower_bounds.volume big_inst).Sched_baselines.Lower_bounds.value in
      let (big_sched, big_live), t_big, gc_big = time_gc (fun () -> fr_cl.PR.run big_inst) in
      let big_events = count_events big_sched in
      let ratio = big_live.D.flow.Sched_model.Metrics.total_with_rejected /. lb in
      let rej_pct = 100. *. big_live.D.rejection.Sched_model.Metrics.fraction in
      Printf.printf
        "  cluster-scale point: gen %.1f s, run %.1f s (%.0f ev/s), ratio %.3f, rejected %.1f%%\n%!"
        t_gen t_big
        (float_of_int big_events /. t_big)
        ratio rej_pct;
      Ok (cn, cm, t_gen, t_big, gc_big, big_events, ratio, rej_pct)
    end
  in
  (match cluster_point with
  | Ok _ -> ()
  | Error reason -> Printf.printf "  cluster-scale point skipped: %s\n%!" reason);

  (* 3g: the streaming session engine behind `rejsched serve` — the
     PR-10 tentpole.  Three parts.

     (a) Byte-identity fail-fast: every fuzz-corpus case, streamed
         through an incremental [Driver.Session] under its distilled
         policy in arrival chunks of 1 and of 7, must close on exactly
         the canonical schedule the one-shot batch run produces.  The
         exhaustive differential (every registry policy, chunk sizes
         {1, 7, n}, bit-equal live metrics, oracle audits, retire-mode
         metric identity) lives in test_stream_differential.ml; the
         bench repeats the schedule-identity core so a perf-motivated
         edit cannot ship a stream/batch divergence past
         `make bench-check` either.

     (b) Session overhead: the same flow-uniform workload through the
         batch entry point and through a chunked session.  The session
         is the batch run's event loop behind a feed/drain surface, so the
         gap is the price of the incremental surface itself (bounded
         drains, horizon checks, fed-list upkeep) — recorded, not
         gated.

     (c) The rolling-retirement memory gate: a retire-mode session fed
         n=10^6 synthetic arrivals on m=4 machines at ~0.6 utilization
         (the pending set stays O(m), so any O(n) residue is retention,
         not backlog), live heap sampled via [Gc.full_major] every n/10
         feeds, against the identical stream with retirement off.
         Retirement folds finished segments straight into the rolling
         aggregates, drops the per-job handles and skips the fed list,
         so peak live words per fed job must stay under an absolute
         ceiling AND well under the keep-everything run's figure; both
         streams must agree on every live metric bit. *)
  let stream_feed (s : PR.stream_session) inst ~chunk =
    let jobs = Sched_model.Instance.jobs_by_release inst in
    let nj = Array.length jobs in
    let k = ref 0 in
    while !k < nj do
      let stop = min nj (!k + chunk) in
      for i = !k to stop - 1 do
        s.PR.ss_feed jobs.(i)
      done;
      s.PR.ss_drain_until jobs.(stop - 1).Sched_model.Job.release;
      k := stop
    done;
    s.PR.ss_close ()
  in
  let stream_cases = ref 0 in
  List.iter
    (fun (c : Sched_fuzz.Corpus.case) ->
      match PR.find c.Sched_fuzz.Corpus.policy with
      | None -> ()
      | Some e ->
          let s_inst = c.Sched_fuzz.Corpus.instance in
          let reference =
            Sched_model.Serialize.schedule_to_canonical_string
              (fst (e.PR.run s_inst))
          in
          List.iter
            (fun chunk ->
              incr stream_cases;
              let s =
                e.PR.open_stream ~name:s_inst.Sched_model.Instance.name
                  ~machines:s_inst.Sched_model.Instance.machines ()
              in
              match stream_feed s s_inst ~chunk with
              | Some sch, _
                when Sched_model.Serialize.schedule_to_canonical_string sch = reference ->
                  ()
              | Some _, _ ->
                  Printf.eprintf
                    "FAIL: streamed %s diverges from the batch run on %s at chunk=%d\n%!"
                    e.PR.name c.Sched_fuzz.Corpus.name chunk;
                  exit 1
              | None, _ ->
                  Printf.eprintf "FAIL: un-retired session returned no schedule on %s\n%!"
                    c.Sched_fuzz.Corpus.name;
                  exit 1)
            [ 1; 7 ])
    (Sched_fuzz.Corpus.seeds ());
  Printf.printf
    "  streaming byte-identity: %d corpus x chunk sessions identical to the batch run\n%!"
    !stream_cases;
  let so_n = if quick then 4_000 else 20_000 and so_m = 16 in
  let so_inst =
    Sched_workload.Gen.instance (Sched_workload.Suite.flow_uniform ~n:so_n ~m:so_m) ~seed:13
  in
  let fr_st = Option.get (PR.find "flow-reject") in
  let so_sched, _ = fr_st.PR.run so_inst in
  let so_events = count_events so_sched in
  let c_so = Sched_model.Serialize.schedule_to_canonical_string so_sched in
  let t_so_batch =
    best_of reps (fun () -> ignore (fr_st.PR.run so_inst))
  in
  let stream_once () =
    let s =
      fr_st.PR.open_stream ~name:so_inst.Sched_model.Instance.name
        ~machines:so_inst.Sched_model.Instance.machines ()
    in
    stream_feed s so_inst ~chunk:64
  in
  (match stream_once () with
  | Some sch, _ when Sched_model.Serialize.schedule_to_canonical_string sch = c_so -> ()
  | _ ->
      Printf.eprintf "FAIL: streamed flow-uniform workload diverges from the batch run\n%!";
      exit 1);
  let t_so_stream = best_of reps (fun () -> ignore (stream_once ())) in
  let gc_so = gc_of (fun () -> ignore (stream_once ())) in
  let so_overhead = t_so_stream /. t_so_batch in
  Printf.printf
    "  session overhead (flow-reject, n=%d m=%d, chunk=64): batch %.0f ev/s, stream %.0f ev/s \
     (%.3fx)\n\
     %!"
    so_n so_m
    (float_of_int so_events /. t_so_batch)
    (float_of_int so_events /. t_so_stream)
    so_overhead;
  let st_n = if quick then 100_000 else 1_000_000 in
  let st_m = 4 in
  let st_machines = Sched_model.Machine.fleet st_m in
  (* Deterministic arrival stream, dyadic throughout: 4 arrivals per time
     unit against 4 machines serving mean size 0.625, so the backlog is
     a small constant and peak residency isolates what the engine keeps. *)
  let st_job i =
    let release = 0.25 *. float_of_int i in
    let sizes = Array.init st_m (fun k -> 0.25 +. (0.25 *. float_of_int ((i + k) land 3))) in
    Sched_model.Job.create ~id:i ~release ~sizes ()
  in
  let st_run ~retire =
    Gc.compact ();
    let base = (Gc.stat ()).Gc.live_words in
    let s = fr_st.PR.open_stream ~retire ~name:"stream-mem" ~machines:st_machines () in
    let peak = ref 0 in
    let sample () =
      Gc.full_major ();
      let lw = (Gc.stat ()).Gc.live_words in
      if lw > !peak then peak := lw
    in
    let sample_every = max 1 (st_n / 10) in
    let t0 = wall () in
    let i = ref 0 in
    while !i < st_n do
      let stop = min st_n (!i + 512) in
      for k = !i to stop - 1 do
        s.PR.ss_feed (st_job k)
      done;
      s.PR.ss_drain_until (0.25 *. float_of_int (stop - 1));
      if stop / sample_every > !i / sample_every then sample ();
      i := stop
    done;
    let sched, live = s.PR.ss_close () in
    sample ();
    let dt = wall () -. t0 in
    (* Touch the materialized schedule after the sample so the closing
       run's peak genuinely includes it. *)
    let segs =
      match sched with
      | Some sc -> List.length sc.Sched_model.Schedule.segments
      | None -> 0
    in
    (dt, max 0 (!peak - base), live, segs)
  in
  let t_st_ret, words_ret, live_ret, segs_ret = st_run ~retire:true in
  let t_st_keep, words_keep, live_keep, segs_keep = st_run ~retire:false in
  if segs_ret <> 0 then begin
    Printf.eprintf "FAIL: retire-mode stream materialized %d segments\n%!" segs_ret;
    exit 1
  end;
  if
    not
      (Float.equal live_ret.D.flow.Sched_model.Metrics.total_with_rejected
         live_keep.D.flow.Sched_model.Metrics.total_with_rejected
      && Float.equal live_ret.D.energy live_keep.D.energy
      && Float.equal live_ret.D.makespan live_keep.D.makespan
      && live_ret.D.rejection.Sched_model.Metrics.count
         = live_keep.D.rejection.Sched_model.Metrics.count)
  then begin
    Printf.eprintf "FAIL: rolling retirement perturbed the live metrics\n%!";
    exit 1
  end;
  let wpj_ret = float_of_int words_ret /. float_of_int st_n in
  let wpj_keep = float_of_int words_keep /. float_of_int st_n in
  let stream_mem_ratio = wpj_ret /. wpj_keep in
  (* Both streams share the structural floor (flat columns and the
     per-machine indexed heaps, all sized by job capacity), so the
     ratio separates modestly; the absolute ceiling is the sharp
     no-retention signal — retaining the fed list and job boxes alone
     adds ~20 words/job. *)
  let stream_wpj_ceiling = 48.0 and stream_ratio_gate = 0.75 in
  Printf.printf
    "  rolling retirement (flow-reject, n=%d m=%d): retire %.1f words/job in %.1f s, keep %.1f \
     words/job (%d segments) in %.1f s, ratio %.2f\n\
     %!"
    st_n st_m wpj_ret t_st_ret wpj_keep segs_keep t_st_keep stream_mem_ratio;

  (* JSON baseline. *)
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"pr\": \"pr12\",\n";
  Printf.bprintf buf "  \"quick\": %b,\n" quick;
  Printf.bprintf buf "  \"driver_event_microbench\": {\n";
  Printf.bprintf buf "    \"policy\": \"greedy-spt\",\n";
  Printf.bprintf buf "    \"n\": %d,\n    \"m\": %d,\n    \"events\": %d,\n" n m events;
  Printf.bprintf buf "    \"indexed_seconds\": %.6f,\n" t_opt;
  Printf.bprintf buf "    \"seed_scan_seconds\": %.6f,\n" t_ref;
  Printf.bprintf buf "    \"indexed_events_per_sec\": %.1f,\n" (float_of_int events /. t_opt);
  bprintf_gc buf ~indent:"    " ~key:"indexed_gc" gc_opt;
  Printf.bprintf buf "    \"seed_scan_events_per_sec\": %.1f,\n" (float_of_int events /. t_ref);
  bprintf_gc buf ~indent:"    " ~key:"seed_scan_gc" gc_ref;
  Printf.bprintf buf "    \"speedup\": %.3f\n  },\n" speedup;
  Printf.bprintf buf "  \"telemetry\": {\n";
  Printf.bprintf buf "    \"instrumented_seconds\": %.6f,\n" t_tel;
  Printf.bprintf buf "    \"instrumented_events_per_sec\": %.1f,\n" (float_of_int events /. t_tel);
  bprintf_gc buf ~indent:"    " ~key:"instrumented_gc" gc_tel;
  Printf.bprintf buf "    \"overhead_ratio\": %.3f,\n" (t_tel /. t_opt);
  Printf.bprintf buf "    \"speedup_vs_seed\": %.3f,\n" tel_speedup;
  Printf.bprintf buf "    \"snapshot\": %s\n  },\n"
    (String.trim (Sched_obs.Export.json (Sched_obs.Obs.registry obs)));
  Printf.bprintf buf "  \"flat_core\": {\n";
  Printf.bprintf buf "    \"policy\": \"greedy-spt\",\n";
  Printf.bprintf buf "    \"events\": %d,\n" events;
  Printf.bprintf buf "    \"flat_seconds\": %.6f,\n" t_flat;
  Printf.bprintf buf "    \"flat_events_per_sec\": %.1f,\n" flat_eps;
  bprintf_gc buf ~indent:"    " ~key:"flat_gc" gc_flat;
  Printf.bprintf buf "    \"pr4_baseline_events_per_sec\": %.1f,\n" pr4_indexed_events_per_sec;
  Printf.bprintf buf "    \"gain_vs_pr4_baseline\": %.3f,\n" flat_gain;
  Printf.bprintf buf "    \"allocs_per_event\": %.2f,\n" allocs_per_event;
  Printf.bprintf buf "    \"allocs_per_event_gate\": %.1f\n  },\n" allocs_per_event_gate;
  Printf.bprintf buf "  \"recorder\": {\n";
  Printf.bprintf buf "    \"ring_capacity\": %d,\n" recorder_capacity;
  Printf.bprintf buf "    \"spt_informational\": {\n";
  Printf.bprintf buf "      \"policy\": \"greedy-spt\",\n";
  Printf.bprintf buf "      \"events\": %d,\n" events;
  Printf.bprintf buf "      \"recorded_events\": %d,\n" recorder_events;
  Printf.bprintf buf "      \"recorder_off_seconds\": %.6f,\n" t_norec;
  Printf.bprintf buf "      \"recorder_on_seconds\": %.6f,\n" t_rec;
  Printf.bprintf buf "      \"recorder_off_events_per_sec\": %.1f,\n"
    (float_of_int events /. t_norec);
  bprintf_gc buf ~indent:"      " ~key:"recorder_off_gc" gc_flat;
  Printf.bprintf buf "      \"recorder_on_events_per_sec\": %.1f,\n" (float_of_int events /. t_rec);
  bprintf_gc buf ~indent:"      " ~key:"recorder_on_gc" gc_rec_on;
  Printf.bprintf buf "      \"overhead_ratio\": %.4f\n    },\n" rec_overhead_spt;
  Printf.bprintf buf "    \"gate\": {\n";
  Printf.bprintf buf "      \"policy\": \"flow-reject\",\n";
  Printf.bprintf buf "      \"events\": %d,\n" fr_gate_events;
  Printf.bprintf buf "      \"estimator\": \"median-pair-ratio\",\n";
  Printf.bprintf buf "      \"pairs\": %d,\n" rec_pairs;
  Printf.bprintf buf "      \"recorder_off_events_per_sec\": %.1f,\n"
    (float_of_int fr_gate_events /. !t_fr_norec);
  bprintf_gc buf ~indent:"      " ~key:"recorder_off_gc" gc_fr_off;
  Printf.bprintf buf "      \"recorder_on_events_per_sec\": %.1f,\n"
    (float_of_int fr_gate_events /. !t_fr_rec);
  bprintf_gc buf ~indent:"      " ~key:"recorder_on_gc" gc_fr_on;
  Printf.bprintf buf "      \"overhead_ratio\": %.4f,\n" rec_overhead;
  Printf.bprintf buf "      \"overhead_gate\": %.2f\n    },\n" rec_overhead_gate;
  Printf.bprintf buf "    \"byte_identical\": true\n  },\n";
  Printf.bprintf buf "  \"fuzz_preflight\": {\n";
  Printf.bprintf buf "    \"budget\": %d,\n" fuzz_budget;
  Printf.bprintf buf "    \"evaluated\": %d,\n" fuzz_head.Sched_fuzz.Fuzz.evaluated;
  Printf.bprintf buf "    \"coverage\": %d,\n" fuzz_head.Sched_fuzz.Fuzz.coverage;
  Printf.bprintf buf "    \"failures\": %d,\n" (List.length fuzz_head.Sched_fuzz.Fuzz.failures);
  Printf.bprintf buf "    \"widths\": \"%s\",\n"
    (String.concat "," (List.map string_of_int fuzz_widths));
  Printf.bprintf buf "    \"byte_identical\": true\n  },\n";
  Printf.bprintf buf "  \"pool_scaling\": {\n";
  Printf.bprintf buf "    \"suite\": \"%s\",\n" (String.concat "," suite_ids);
  Printf.bprintf buf "    \"recommended_domains\": %d,\n" recommended;
  Printf.bprintf buf "    \"driver_events\": %.0f,\n" suite_events;
  Printf.bprintf buf "    \"sequential_seconds\": %.6f,\n" t_suite_seq;
  Printf.bprintf buf "    \"sequential_events_per_sec\": %.1f,\n" (suite_events /. t_suite_seq);
  bprintf_gc buf ~indent:"    " ~key:"sequential_gc" gc_suite_seq;
  List.iter
    (fun (d, dt, gc) ->
      Printf.bprintf buf "    \"domains_%d_seconds\": %.6f,\n" d dt;
      Printf.bprintf buf "    \"domains_%d_speedup\": %.3f,\n" d (t_suite_seq /. dt);
      Printf.bprintf buf "    \"domains_%d_events_per_sec\": %.1f,\n" d (suite_events /. dt);
      bprintf_gc buf ~indent:"    " ~key:(Printf.sprintf "domains_%d_gc" d) gc)
    pool_times;
  Printf.bprintf buf
    "    \"regression_note\": \"BENCH_pr6.json recorded domains_4 at 496278 ev/s vs 1085708 ev/s \
     sequential on this suite.  The gc fields (submitting-domain Gc.quick_stat deltas) attribute \
     the within-run gap to per-seed tasks too small to amortize submission while every extra \
     domain multiplies minor-heap pressure — not to slower code.\",\n";
  Printf.bprintf buf "    \"byte_identical\": true\n  },\n";
  (match cluster_point with
  | Error reason ->
      Printf.bprintf buf "  \"cluster_scale_point\": { \"skipped\": true, \"reason\": \"%s\" },\n"
        reason
  | Ok (cn, cm, t_gen, t_big, gc_big, big_events, ratio, rej_pct) ->
      Printf.bprintf buf "  \"cluster_scale_point\": {\n";
      Printf.bprintf buf "    \"policy\": \"flow-reject\",\n";
      Printf.bprintf buf "    \"n\": %d,\n    \"m\": %d,\n" cn cm;
      Printf.bprintf buf "    \"gen_seconds\": %.3f,\n" t_gen;
      Printf.bprintf buf "    \"run_seconds\": %.3f,\n" t_big;
      Printf.bprintf buf "    \"events\": %d,\n" big_events;
      Printf.bprintf buf "    \"events_per_sec\": %.1f,\n" (float_of_int big_events /. t_big);
      bprintf_gc buf ~indent:"    " ~key:"gc" gc_big;
      Printf.bprintf buf "    \"ratio_vs_volume_lb\": %.4f,\n" ratio;
      Printf.bprintf buf "    \"rejected_pct\": %.2f\n  },\n" rej_pct);
  Printf.bprintf buf "  \"streaming\": {\n";
  Printf.bprintf buf "    \"identity_runs\": %d,\n" !stream_cases;
  Printf.bprintf buf "    \"chunk_sizes\": \"1,7\",\n";
  Printf.bprintf buf "    \"byte_identical\": true,\n";
  Printf.bprintf buf "    \"session_overhead\": {\n";
  Printf.bprintf buf "      \"policy\": \"flow-reject\",\n";
  Printf.bprintf buf "      \"n\": %d,\n      \"m\": %d,\n      \"chunk\": 64,\n" so_n so_m;
  Printf.bprintf buf "      \"events\": %d,\n" so_events;
  Printf.bprintf buf "      \"batch_seconds\": %.6f,\n" t_so_batch;
  Printf.bprintf buf "      \"batch_events_per_sec\": %.1f,\n"
    (float_of_int so_events /. t_so_batch);
  Printf.bprintf buf "      \"stream_seconds\": %.6f,\n" t_so_stream;
  Printf.bprintf buf "      \"stream_events_per_sec\": %.1f,\n"
    (float_of_int so_events /. t_so_stream);
  bprintf_gc buf ~indent:"      " ~key:"stream_gc" gc_so;
  Printf.bprintf buf "      \"overhead_ratio\": %.4f\n    },\n" so_overhead;
  Printf.bprintf buf "    \"rolling_retirement\": {\n";
  Printf.bprintf buf "      \"policy\": \"flow-reject\",\n";
  Printf.bprintf buf "      \"n\": %d,\n      \"m\": %d,\n" st_n st_m;
  Printf.bprintf buf "      \"retire_seconds\": %.3f,\n" t_st_ret;
  Printf.bprintf buf "      \"retire_jobs_per_sec\": %.1f,\n" (float_of_int st_n /. t_st_ret);
  Printf.bprintf buf "      \"retire_peak_live_words\": %d,\n" words_ret;
  Printf.bprintf buf "      \"retire_words_per_job\": %.2f,\n" wpj_ret;
  Printf.bprintf buf "      \"keep_seconds\": %.3f,\n" t_st_keep;
  Printf.bprintf buf "      \"keep_peak_live_words\": %d,\n" words_keep;
  Printf.bprintf buf "      \"keep_words_per_job\": %.2f,\n" wpj_keep;
  Printf.bprintf buf "      \"keep_segments_materialized\": %d,\n" segs_keep;
  Printf.bprintf buf "      \"retire_vs_keep_ratio\": %.4f,\n" stream_mem_ratio;
  Printf.bprintf buf "      \"words_per_job_ceiling\": %.1f,\n" stream_wpj_ceiling;
  Printf.bprintf buf "      \"ratio_gate\": %.2f,\n" stream_ratio_gate;
  Printf.bprintf buf
    "      \"note\": \"peak live words (Gc.full_major samples every n/10 feeds) minus the \
     pre-open baseline; the retire stream keeps the flat columns but no segments, job boxes or \
     fed list\",\n";
  Printf.bprintf buf "      \"metrics_bit_identical\": true\n    }\n";
  Printf.bprintf buf "  }\n}\n";
  let oc = open_out out_path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "  wrote %s\n%!" out_path;

  (* 3d: compare against the newest previous baseline (the BENCH_prN.json
     with the largest N other than the file just written).
     Skipped in quick mode and against quick-mode baselines: those wall
     times are not comparable.  A >2x throughput drop fails the check. *)
  (match newest_baseline ~excluding:out_path with
  | None -> Printf.printf "  no previous BENCH_*.json baseline to compare against\n%!"
  | Some file ->
      let content = In_channel.with_open_text file In_channel.input_all in
      let base_quick =
        match scan_json_field ~key:"quick" content with Some s -> s = "true" | None -> false
      in
      let base_eps =
        match scan_json_field ~key:"indexed_events_per_sec" content with
        | Some s -> float_of_string_opt s
        | None -> None
      in
      (match base_eps with
      | None -> Printf.printf "  baseline %s has no indexed_events_per_sec; skipping compare\n%!" file
      | Some base ->
          let current = float_of_int events /. t_opt in
          Printf.printf "  baseline %s: %.0f ev/s, current %.0f ev/s (%.2fx)\n%!" file base current
            (current /. base);
          if quick || base_quick then
            Printf.printf "  (quick mode involved; baseline comparison not gated)\n%!"
          else if current < 0.5 *. base then begin
            Printf.eprintf "FAIL: throughput dropped more than 2x vs baseline %s\n%!" file;
            exit 1
          end));

  if speedup < 2.0 then begin
    Printf.eprintf "FAIL: driver-event speedup %.2fx is below the 2x gate\n%!" speedup;
    exit 1
  end;
  if tel_speedup < 2.0 then begin
    Printf.eprintf "FAIL: telemetry-on speedup %.2fx is below the 2x gate\n%!" tel_speedup;
    exit 1
  end;
  Printf.printf "  PASS: driver-event speedup %.1fx (%.1fx with telemetry) >= 2x gate\n%!" speedup
    tel_speedup;
  (* Flat-core gates: 2x the PR-4 recorded throughput, and the
     allocations-per-event ceiling that pins the zero-allocation steady
     state (the residue is the policy-facing interface, not the loop). *)
  if flat_gain < 2.0 then begin
    Printf.eprintf "FAIL: flat core %.0f ev/s is %.2fx the PR-4 baseline %.0f ev/s, below the 2x \
                    gate\n\
                    %!"
      flat_eps flat_gain pr4_indexed_events_per_sec;
    exit 1
  end;
  if allocs_per_event > allocs_per_event_gate then begin
    Printf.eprintf "FAIL: flat core allocates %.1f words/event, over the %.1f ceiling\n%!"
      allocs_per_event allocs_per_event_gate;
    exit 1
  end;
  Printf.printf
    "  PASS: flat core %.1fx over PR-4 baseline (>= 2x gate), %.1f words/event <= %.1f ceiling\n%!"
    flat_gain allocs_per_event allocs_per_event_gate;
  (* Recorder gate: on the paper's flow-reject policy, the hot-loop ring
     writes must cost at most 5% of the recorder-off throughput (median
     of order-alternated pair ratios; schedule byte-identity for both
     recorder policies was checked above). *)
  if rec_overhead > rec_overhead_gate then begin
    Printf.eprintf
      "FAIL: flight recorder overhead %.3fx exceeds the %.2fx gate (%.0f ev/s on vs %.0f ev/s \
       off, flow-reject)\n\
       %!"
      rec_overhead rec_overhead_gate
      (float_of_int fr_gate_events /. !t_fr_rec)
      (float_of_int fr_gate_events /. !t_fr_norec);
    exit 1
  end;
  Printf.printf
    "  PASS: flight recorder overhead %.3fx <= %.2fx gate (flow-reject, median of %d pairs)\n%!"
    rec_overhead rec_overhead_gate rec_pairs;
  (* Pool gates.  Width 1 must stay close to sequential (the pool's whole
     overhead budget); the 2x-at-4-domains gate only means something on a
     host that has 4 cores to give. *)
  let pool_time d =
    List.find_map (fun (d', dt, _) -> if d' = d then Some dt else None) pool_times
  in
  let t_pool1 = Option.get (pool_time 1) in
  if t_pool1 > 2.0 *. t_suite_seq then begin
    Printf.eprintf "FAIL: width-1 pool %.3f s exceeds 2x sequential %.3f s\n%!" t_pool1
      t_suite_seq;
    exit 1
  end;
  (match pool_time 4 with
  | Some t4 when recommended >= 4 ->
      if t_suite_seq /. t4 < 2.0 then begin
        Printf.eprintf "FAIL: suite speedup at 4 domains %.2fx is below the 2x gate\n%!"
          (t_suite_seq /. t4);
        exit 1
      end
      else Printf.printf "  PASS: suite speedup at 4 domains %.1fx >= 2x gate\n%!" (t_suite_seq /. t4)
  | _ ->
      Printf.printf "  (4-domain speedup gate skipped: host has %d recommended domain%s)\n%!"
        recommended
        (if recommended = 1 then "" else "s"));
  Printf.printf "  PASS: width-1 pool overhead %.2fx <= 2x sequential; tables and telemetry \
                 byte-identical at every width\n%!"
    (t_pool1 /. t_suite_seq);
  (* Streaming gates.  Byte-identity and metric-identity were enforced
     fail-fast above; here the resident-memory claim: the retire-mode
     stream's peak live words per fed job must stay under an absolute
     ceiling (no O(n)-per-job retention beyond the flat columns) and
     well under the keep-everything stream's figure (retirement is
     actually retiring something). *)
  if wpj_ret > stream_wpj_ceiling then begin
    Printf.eprintf
      "FAIL: retire-mode stream peaks at %.1f live words/job, over the %.1f ceiling (n=%d)\n%!"
      wpj_ret stream_wpj_ceiling st_n;
    exit 1
  end;
  if stream_mem_ratio > stream_ratio_gate then begin
    Printf.eprintf
      "FAIL: retire-mode peak %.1f words/job is %.2fx the keep-everything %.1f words/job, over \
       the %.2f gate\n\
       %!"
      wpj_ret stream_mem_ratio wpj_keep stream_ratio_gate;
    exit 1
  end;
  Printf.printf
    "  PASS: rolling retirement holds %.1f words/job <= %.1f ceiling and %.2fx <= %.2fx of the \
     keep-everything stream (%d streaming identity runs byte-identical)\n\
     %!"
    wpj_ret stream_wpj_ceiling stream_mem_ratio stream_ratio_gate !stream_cases

let () =
  let argv = Array.to_list Sys.argv in
  if List.mem "--regression" argv then
    let rec named = function
      | "--out" :: path :: _ -> Some path
      | _ :: rest -> named rest
      | [] -> None
    in
    let out =
      match named argv with
      | Some path -> path
      | None -> (
          (* Back-compat: a bare positional path still works. *)
          match
            List.filter (fun a -> not (String.length a > 0 && a.[0] = '-')) (List.tl argv)
          with
          | [ path ] -> path
          | _ -> "BENCH_pr12.json")
    in
    run_regression out
  else begin
    run_experiments ();
    run_benchmarks ()
  end
