(* Regression gate behind `make bench-check`.

   Each section checks a speed or memory claim that neither `dune runtest`
   nor the layer ladder (bench/ladder, BENCHMARK.json) checks, and ends in
   a gate or a byte-identity fail-fast:

   - the driver-event microbenchmark: greedy-spt on an overloaded burst
     instance, bare and with telemetry, >= 2x the scan-based seed
     reference, >= 2x the events/sec recorded in BENCH_pr4.json, and no
     more than a 2x drop against the newest previous BENCH_prN.json;
   - the flight recorder: <= 5% overhead on flow-reject, schedules
     byte-identical with it on or off;
   - domain-pool scaling on the experiment suite: tables and telemetry
     byte-identical at every width, width 1 <= 2x sequential, and (on
     hosts with >= 4 recommended domains) 4 domains >= 2x sequential;
   - rolling retirement: a retire-mode session's peak live words per job
     under a ceiling and well under the keep-everything stream's, with
     bit-identical live metrics.

   Writes the figures to the JSON file named by --out and exits 1 if any
   gate fails.

   Run with: dune exec --profile release bench/main.exe -- --out FILE
   (set REJSCHED_QUICK=1 for a shorter retirement stream and no baseline
   comparison). *)

module J = Sched_obs.Ndjson

let quick = Sys.getenv_opt "REJSCHED_QUICK" <> None

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("FAIL: " ^ msg);
      exit 1)
    fmt

(* One call's wall seconds. *)
let sample f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Order-alternated pairs: [n] samples of each side, alternating which
   side goes first.  Adjacent samples see the same machine state, so a
   frequency dip cancels inside a pair, and the alternation cancels
   warm-up bias.  Returns each side's best time and the median of the
   per-pair ratios [b / a], which drops the pairs a noisy neighbour
   landed on. *)
type pairs = { a : float; b : float; ratio : float }

let pairs ~n a b =
  let sa = Array.make n 0. and sb = Array.make n 0. in
  for p = 0 to n - 1 do
    if p land 1 = 0 then begin
      sa.(p) <- sample a;
      sb.(p) <- sample b
    end
    else begin
      sb.(p) <- sample b;
      sa.(p) <- sample a
    end
  done;
  let best s = Array.fold_left Float.min infinity s in
  let ratios = Array.init n (fun p -> sb.(p) /. sa.(p)) in
  Array.sort Float.compare ratios;
  { a = best sa; b = best sb; ratio = ratios.(n / 2) }

(* An overloaded burst instance: releases compressed into a short prefix
   so per-machine pending queues grow to Theta(n/m), the regime where the
   indexed queues beat the seed's linear scans.  All values are dyadic
   (multiples of 1/4), so the indexed and scan-based float sums are exact
   and the schedules can be compared byte for byte. *)
let burst_instance ~n ~m ~seed =
  let rng = Sched_stats.Rng.create seed in
  let quarters lo count = lo +. (0.25 *. float_of_int (Sched_stats.Rng.int rng count)) in
  let jobs =
    List.init n (fun id ->
        let release = quarters 0. (max 1 (n / 8)) in
        let weight = quarters 0.25 8 in
        let sizes = Array.init m (fun _ -> quarters 0.5 15) in
        Sched_model.Job.create ~id ~release ~weight ~sizes ())
  in
  Sched_model.Instance.create
    ~name:(Printf.sprintf "burst-n%d-m%d-s%d" n m seed)
    ~machines:(Sched_model.Machine.fleet m) ~jobs ()

let per_sec events seconds = float_of_int events /. seconds

(* One arrival per job plus a start and a finish per laid segment. *)
let count_events (s : Sched_model.Schedule.t) =
  Sched_model.Instance.n s.Sched_model.Schedule.instance
  + (2 * List.length s.Sched_model.Schedule.segments)

(* The newest previous baseline: the BENCH_prN.json with the largest N
   (compared as an integer, so pr10 outranks pr9). *)
let newest_baseline ~excluding =
  let pr_number f =
    if
      f <> Filename.basename excluding
      && String.starts_with ~prefix:"BENCH_pr" f
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

let read_json file =
  if Sys.file_exists file then
    Result.to_option (J.parse (In_channel.with_open_text file In_channel.input_all))
  else None

let field path json = List.fold_left (fun j k -> Option.bind j (J.member k)) json path

let indexed_events_per_sec json =
  match field [ "driver_event_microbench"; "indexed_events_per_sec" ] json with
  | Some (J.Jnum v) -> Some v
  | _ -> None

let () =
  let out =
    match Sys.argv with
    | [| _; "--out"; path |] -> path
    | _ ->
        prerr_endline "usage: main.exe --out FILE.json";
        exit 2
  in
  let module PR = Sched_experiments.Policy_registry in
  let module D = Sched_sim.Driver in
  let to_string = Sched_model.Serialize.schedule_to_string in
  let canonical = Sched_model.Serialize.schedule_to_canonical_string in
  Printf.printf "== Regression gate (quick=%b) ==\n%!" quick;

  (* Driver events: greedy-spt on the burst instance, indexed pending
     queues vs the seed's linear scans.  The bare and the telemetry run
     are timed once, interleaved, best of 7; the bare figure feeds the
     seed, PR-4 and baseline gates.  Telemetry reads its counters and
     gauges out of the flat state when the session closes, so it must
     neither change the schedule nor eat the indexed win. *)
  let n = 10_000 and m = 8 in
  let inst = burst_instance ~n ~m ~seed:7 in
  let spt = Sched_baselines.Greedy_dispatch.spt in
  let schedule ?obs policy =
    let s, _, _ = D.run ?obs policy inst in
    s
  in
  let s_bare = schedule spt in
  let obs = Sched_obs.Obs.create () in
  if to_string (schedule ~obs spt) <> to_string s_bare then
    fail "telemetry-instrumented greedy-spt diverges from the bare run";
  if to_string (schedule Sched_baselines.Seed_reference.greedy_spt) <> to_string s_bare then
    fail "indexed greedy-spt diverges from the seed reference on the burst instance";
  let events = count_events s_bare in
  let t_seed = sample (fun () -> ignore (schedule Sched_baselines.Seed_reference.greedy_spt)) in
  let spt_t =
    pairs ~n:7
      (fun () -> ignore (schedule spt))
      (fun () -> ignore (schedule ~obs:(Sched_obs.Obs.create ()) spt))
  in
  let eps_bare = per_sec events spt_t.a and eps_tel = per_sec events spt_t.b in
  let speedup = t_seed /. spt_t.a and tel_speedup = t_seed /. spt_t.b in
  (* The literal is the recorded value, so a missing file cannot weaken
     the gate. *)
  let pr4 = Option.value ~default:489483.7 (indexed_events_per_sec (read_json "BENCH_pr4.json")) in
  Printf.printf
    "  driver events (greedy-spt, n=%d m=%d): indexed %.0f ev/s (%.2fx the PR-4 %.0f ev/s), seed \
     scans %.0f ev/s, speedup %.1fx\n\
     %!"
    n m eps_bare (eps_bare /. pr4) pr4 (per_sec events t_seed) speedup;
  Printf.printf "  with telemetry: %.0f ev/s, overhead %.2fx median, speedup vs seed %.1fx\n%!"
    eps_tel spt_t.ratio tel_speedup;

  (* Flight recorder on flow-reject, the paper's algorithm (dispatch,
     start, complete, reject and the budget column all exercised).  The
     ring (4096 rows, the fuzzer's failure-dump capacity) is allocated
     outside the timed closures, so this is the steady-state write cost.
     The overhead sits within a point or two of the gate, so the median
     runs over 101 pairs of single ~35 ms runs: on a shared 2-vCPU host,
     repeated estimates spread over ~0.01x, against ~0.1x for 13 pairs of
     8-run samples taking the same time. *)
  let recorder = Sched_obs.Recorder.create ~capacity:4096 () in
  let fr = Option.get (PR.find "flow-reject") in
  let s_fr = fst (fr.PR.run inst) in
  if canonical (fst (fr.PR.run ~recorder inst)) <> canonical s_fr then
    fail "recorder-on flow-reject run diverges from the recorder-off schedule";
  let fr_events = count_events s_fr in
  let rec_pairs = 101 and rec_gate = 1.05 in
  let rec_t =
    pairs ~n:rec_pairs
      (fun () -> ignore (fr.PR.run inst))
      (fun () -> ignore (fr.PR.run ~recorder inst))
  in
  Printf.printf
    "  flight recorder (flow-reject): %.0f ev/s on, %.0f ev/s off, overhead %.3fx median of %d \
     pairs\n\
     %!"
    (per_sec fr_events rec_t.b)
    (per_sec fr_events rec_t.a)
    rec_t.ratio rec_pairs;

  (* Domain-pool scaling on the experiment suite, the pool's real
     workload: run_all fans experiments out as tasks and per-seed
     replication shares the same pool.  Every run at every width must
     reproduce the sequential tables and merged telemetry byte for byte;
     each width is timed against sequential in pairs, pool start-up
     included. *)
  let suite_ids = [ "e1"; "e2"; "e7"; "e13" ] in
  let run_suite pool =
    let registry = Sched_obs.Registry.create () in
    let obs = Sched_obs.Obs.create ~registry () in
    let tables = Sched_experiments.Registry.run_all ~quick:true ~obs ~only:suite_ids ?pool () in
    String.concat ""
      (List.concat_map (fun (_, ts) -> List.map Sched_stats.Table.to_csv ts) tables)
    ^ Sched_obs.Export.json registry
  in
  let reference = run_suite None in
  let recommended = Domain.recommended_domain_count () in
  let scaling =
    List.map
      (fun d ->
        let at_width () =
          if Sched_stats.Pool.with_pool ~domains:d (fun pool -> run_suite (Some pool)) <> reference
          then fail "suite tables or merged telemetry at domains=%d differ from sequential" d
        in
        let t = pairs ~n:3 (fun () -> ignore (run_suite None)) at_width in
        Printf.printf "  suite scaling (%s): domains=%d %.3f s, sequential %.3f s (%.2fx)\n%!"
          (String.concat "," suite_ids) d t.b t.a t.ratio;
        (d, t))
      (List.sort_uniq Int.compare [ 1; 2; 4; recommended ])
  in

  (* Rolling retirement: a retire-mode session fed synthetic arrivals on
     m=4 machines at ~0.6 utilization (the pending set stays O(m), so any
     O(n) residue is retention, not backlog), live heap sampled via
     [Gc.full_major] every n/10 feeds, against the identical stream with
     retirement off.  Retirement folds finished segments straight into
     the rolling aggregates and hands settled jobs' slots back, so peak live
     words per fed job must stay under an absolute ceiling and well under
     the keep-everything stream's figure, and both streams must agree on
     every live metric bit. *)
  let st_n = if quick then 100_000 else 1_000_000 and st_m = 4 in
  let st_machines = Sched_model.Machine.fleet st_m in
  (* Dyadic throughout: 4 arrivals per time unit against 4 machines
     serving mean size 0.625, so the backlog is a small constant. *)
  let st_job i =
    let release = 0.25 *. float_of_int i in
    let sizes = Array.init st_m (fun k -> 0.25 +. (0.25 *. float_of_int ((i + k) land 3))) in
    Sched_model.Job.create ~id:i ~release ~sizes ()
  in
  let st_run ~retire =
    Gc.compact ();
    let base = (Gc.stat ()).Gc.live_words in
    let s = fr.PR.open_stream ~retire ~name:"stream-mem" ~machines:st_machines () in
    let peak = ref 0 in
    let sample_peak () =
      Gc.full_major ();
      peak := max !peak (Gc.stat ()).Gc.live_words
    in
    let sample_every = st_n / 10 in
    let i = ref 0 in
    while !i < st_n do
      let stop = min st_n (!i + 512) in
      for k = !i to stop - 1 do
        s.PR.ss_feed (st_job k)
      done;
      s.PR.ss_drain_until (0.25 *. float_of_int (stop - 1));
      if stop / sample_every > !i / sample_every then sample_peak ();
      i := stop
    done;
    let sched, live = s.PR.ss_close () in
    sample_peak ();
    (* Touch the materialized schedule after the sample so the closing
       run's peak genuinely includes it. *)
    let segs =
      Option.fold ~none:0 ~some:(fun sc -> List.length sc.Sched_model.Schedule.segments) sched
    in
    (float_of_int (max 0 (!peak - base)) /. float_of_int st_n, live, segs)
  in
  let wpj_ret, live_ret, segs_ret = st_run ~retire:true in
  let wpj_keep, live_keep, segs_keep = st_run ~retire:false in
  if segs_ret <> 0 then fail "retire-mode stream materialized %d segments" segs_ret;
  if
    not
      (Float.equal live_ret.D.flow.Sched_model.Metrics.total_with_rejected
         live_keep.D.flow.Sched_model.Metrics.total_with_rejected
      && Float.equal live_ret.D.energy live_keep.D.energy
      && Float.equal live_ret.D.makespan live_keep.D.makespan
      && live_ret.D.rejection.Sched_model.Metrics.count
         = live_keep.D.rejection.Sched_model.Metrics.count)
  then fail "rolling retirement perturbed the live metrics";
  let mem_ratio = wpj_ret /. wpj_keep in
  (* The retiring stream recycles job slots, so its columns and heaps
     hold the jobs in flight only (it measures ~0 words/job at n=10^6),
     while the keep-everything stream's grow with n.  The absolute
     ceiling is the sharp no-retention signal: retaining the fed list and
     job boxes alone adds ~20 words/job. *)
  let wpj_ceiling = 48.0 and ratio_gate = 0.75 in
  Printf.printf
    "  rolling retirement (flow-reject, n=%d m=%d): retire %.1f words/job, keep %.1f words/job (%d \
     segments), ratio %.2f\n\
     %!"
    st_n st_m wpj_ret wpj_keep segs_keep mem_ratio;

  let entry name raw = Printf.sprintf "  %s: %s" (J.value_to_string (J.String name)) raw in
  let doc =
    [
      entry "quick" (J.value_to_string (J.Bool quick));
      entry "driver_event_microbench"
        (J.obj
           [
             ("policy", J.String "greedy-spt");
             ("n", J.Int n);
             ("m", J.Int m);
             ("events", J.Int events);
             ("best_of", J.Int 7);
             ("indexed_seconds", J.Float spt_t.a);
             ("indexed_events_per_sec", J.Float eps_bare);
             ("seed_scan_seconds", J.Float t_seed);
             ("seed_scan_events_per_sec", J.Float (per_sec events t_seed));
             ("speedup", J.Float speedup);
             ("pr4_baseline_events_per_sec", J.Float pr4);
             ("gain_vs_pr4_baseline", J.Float (eps_bare /. pr4));
             ("instrumented_seconds", J.Float spt_t.b);
             ("instrumented_events_per_sec", J.Float eps_tel);
             ("instrumented_overhead_ratio", J.Float spt_t.ratio);
             ("instrumented_speedup_vs_seed", J.Float tel_speedup);
           ]);
      entry "telemetry_snapshot" (String.trim (Sched_obs.Export.json (Sched_obs.Obs.registry obs)));
      entry "recorder"
        (J.obj
           [
             ("policy", J.String "flow-reject");
             ("ring_capacity", J.Int (Sched_obs.Recorder.capacity recorder));
             ("events", J.Int fr_events);
             ("pairs", J.Int rec_pairs);
             ("recorder_off_events_per_sec", J.Float (per_sec fr_events rec_t.a));
             ("recorder_on_events_per_sec", J.Float (per_sec fr_events rec_t.b));
             ("overhead_ratio", J.Float rec_t.ratio);
             ("overhead_gate", J.Float rec_gate);
           ]);
      entry "pool_scaling"
        (J.obj
           (("suite", J.String (String.concat "," suite_ids))
           :: ("recommended_domains", J.Int recommended)
           :: List.concat_map
                (fun (d, t) ->
                  let key s = Printf.sprintf "domains_%d_%s" d s in
                  [
                    (key "seconds", J.Float t.b);
                    (key "sequential_seconds", J.Float t.a);
                    (key "ratio", J.Float t.ratio);
                  ])
                scaling));
      entry "rolling_retirement"
        (J.obj
           [
             ("policy", J.String "flow-reject");
             ("n", J.Int st_n);
             ("m", J.Int st_m);
             ("retire_words_per_job", J.Float wpj_ret);
             ("keep_words_per_job", J.Float wpj_keep);
             ("keep_segments_materialized", J.Int segs_keep);
             ("retire_vs_keep_ratio", J.Float mem_ratio);
             ("words_per_job_ceiling", J.Float wpj_ceiling);
             ("ratio_gate", J.Float ratio_gate);
           ]);
    ]
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc ("{\n" ^ String.concat ",\n" doc ^ "\n}\n"));
  Printf.printf "  wrote %s\n%!" out;

  (* Quick runs and quick baselines are not comparable wall times. *)
  let baseline =
    match newest_baseline ~excluding:out with
    | None -> None
    | Some file -> (
        let json = read_json file in
        match indexed_events_per_sec json with
        | None -> None
        | Some base ->
            Printf.printf "  baseline %s: %.0f ev/s, current %.0f ev/s (%.2fx)\n%!" file base
              eps_bare (eps_bare /. base);
            let base_quick =
              match field [ "quick" ] json with Some (J.Jbool b) -> b | _ -> false
            in
            if quick || base_quick then None
            else
              Some
                ( eps_bare >= 0.5 *. base,
                  Printf.sprintf "indexed %.0f ev/s within 2x of baseline %s" eps_bare file ))
  in
  let four_domains =
    match List.assoc_opt 4 scaling with
    | Some t when recommended >= 4 ->
        Some
          (t.ratio <= 0.5, Printf.sprintf "suite speedup at 4 domains %.2fx >= 2x" (1. /. t.ratio))
    | _ ->
        Printf.printf "  (4-domain speedup gate skipped: host has %d recommended domains)\n%!"
          recommended;
        None
  in
  let t1 = List.assoc 1 scaling in
  let gates =
    [
      (speedup >= 2., Printf.sprintf "driver-event speedup %.1fx vs seed scans >= 2x" speedup);
      ( tel_speedup >= 2.,
        Printf.sprintf "telemetry-on speedup %.1fx vs seed scans >= 2x" tel_speedup );
      ( eps_bare >= 2. *. pr4,
        Printf.sprintf "indexed %.0f ev/s is %.2fx the PR-4 baseline >= 2x" eps_bare
          (eps_bare /. pr4) );
      ( rec_t.ratio <= rec_gate,
        Printf.sprintf "flight recorder overhead %.3fx <= %.2fx (flow-reject, median of %d pairs)"
          rec_t.ratio rec_gate rec_pairs );
      ( t1.ratio <= 2.,
        Printf.sprintf "width-1 pool %.2fx sequential <= 2x; suite byte-identical at every width"
          t1.ratio );
      ( wpj_ret <= wpj_ceiling,
        Printf.sprintf "rolling retirement %.1f words/job <= %.1f ceiling (n=%d)" wpj_ret
          wpj_ceiling st_n );
      ( mem_ratio <= ratio_gate,
        Printf.sprintf "rolling retirement %.2fx <= %.2fx of the keep-everything stream" mem_ratio
          ratio_gate );
    ]
    @ Option.to_list baseline @ Option.to_list four_domains
  in
  List.iter
    (fun (ok, msg) ->
      if ok then Printf.printf "  PASS: %s\n%!" msg else prerr_endline ("FAIL: " ^ msg))
    gates;
  if List.exists (fun (ok, _) -> not ok) gates then exit 1
