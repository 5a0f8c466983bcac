(* rejsched: command-line front end.

   Subcommands:
     run         run one policy on one synthetic workload, print metrics
     serve       long-lived streaming scheduler: NDJSON arrivals in, decisions out
     experiment  regenerate one (or all) of the paper's experiment tables
     adversary   play a lower-bound game (Lemma 1 or Lemma 2)
     fuzz        coverage-guided oracle fuzzing of every registered policy
     trace       replay an instance under the flight recorder, export traces
     bounds      print the paper's theoretical constants for given eps/alpha
     list        list workloads, policies and experiments

   Exit codes: 0 success, 2 usage error, 3 oracle violation (found by fuzz, or
   in the schedule run makes). *)

open Cmdliner
open Sched_model
module Gen = Sched_workload.Gen
module Suite = Sched_workload.Suite
module PR = Sched_experiments.Policy_registry

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

(* A typed name that names nothing (workload, size distribution,
   policy, experiment, game) raises Invalid_argument, which the
   top-level handler turns into stderr + exit 2. *)
let named what menu name =
  match List.assoc_opt name menu with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "unknown %s %S (one of: %s)" what name
           (String.concat ", " (List.map fst menu)))

(* The registry entry for a name or alias, at [?eps] when given. *)
let policy ?eps name =
  match PR.find ?eps name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "unknown policy %S (see 'rejsched list')" name)

let workload_of_name ~n ~m name = (named "workload" Suite.flow_menu name) ~n ~m

let workload_arg =
  let doc = "Workload family: " ^ String.concat ", " (List.map fst Suite.flow_menu) ^ "." in
  Arg.(value & opt string "uniform" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let n_arg = Arg.(value & opt int 200 & info [ "n"; "jobs" ] ~docv:"N" ~doc:"Number of jobs.")
let m_arg = Arg.(value & opt int 4 & info [ "m"; "machines" ] ~docv:"M" ~doc:"Number of machines.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let eps_arg =
  Arg.(value & opt float 0.25 & info [ "eps" ] ~docv:"EPS" ~doc:"Rejection budget knob in (0,1).")

let alpha_arg =
  Arg.(value & opt float 3.0 & info [ "alpha" ] ~docv:"ALPHA" ~doc:"Power exponent (P(s)=s^alpha).")

let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned tables.")

let domains_arg =
  Arg.(value & opt (some int) None
       & info [ "domains" ] ~docv:"N"
           ~doc:"Width of the process's domain pool (parallel workers for per-seed replication \
                 and 'experiment all').  Defaults to the machine's recommended domain count; \
                 1 forces sequential execution.  Results are byte-identical for every width.")

(* Width flags reject non-positive values as Invalid_argument: the
   top-level handler turns that into stderr + exit 2, the same path as
   every other usage error. *)
let apply_domains = function
  | None -> ()
  | Some d ->
      if d < 1 then invalid_arg (Printf.sprintf "--domains must be >= 1 (got %d)" d);
      Sched_stats.Pool.set_default_domains d

let sizes_arg =
  let names = List.map fst Suite.dist_menu in
  let doc = "Override the workload's size distribution: " ^ String.concat ", " names ^ "." in
  Arg.(value & opt (some string) None & info [ "sizes" ] ~docv:"DIST" ~doc)

let apply_sizes gen = function
  | None -> gen
  | Some name -> { gen with Gen.sizes = named "size distribution" Suite.dist_menu name }

(* Single sink-resolution point: every FILE-taking output flag
   (--telemetry, --trace-ndjson, the trace subcommand's --out-ndjson and
   --out-chrome) means stdout when FILE is '-', a fresh file otherwise. *)
let write_output target content =
  match target with
  | "-" -> print_string content
  | path -> Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc content)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let policy_arg =
    Arg.(value & opt string "thm1"
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:"Registry policy or alias to run at --eps (see 'list').")
  in
  let gantt_arg = Arg.(value & flag & info [ "gantt" ] ~doc:"Draw an ASCII Gantt chart.") in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG Gantt chart of the schedule to FILE.")
  in
  let load_arg =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE" ~doc:"Load the instance from FILE instead of generating it.")
  in
  let swf_arg =
    Arg.(value & opt (some string) None
         & info [ "swf" ] ~docv:"FILE"
             ~doc:"Import the instance from an SWF cluster trace (Parallel Workloads Archive \
                   format); -m selects the fleet size.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Save the (generated) instance to FILE.")
  in
  let segments_arg =
    Arg.(value & opt (some string) None
         & info [ "segments" ] ~docv:"FILE" ~doc:"Write the schedule's segments as CSV to FILE.")
  in
  let telemetry_arg =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"FILE"
             ~doc:"Record run telemetry and write the JSON snapshot to FILE, or to stdout when \
                   FILE is '-'.  The snapshot holds the decision counters (dispatch, start, \
                   complete, reject, mid-run reject, restart), the flat loop's event and \
                   minor-word counters, and per-machine gauges of in-flight and pending jobs.")
  in
  let trace_ndjson_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-ndjson" ] ~docv:"FILE"
             ~doc:"Stream the run's trace events to FILE as newline-delimited JSON (one \
                   schema-tagged object per event), or to stdout when FILE is '-'.")
  in
  let action policy_name workload n m seed eps csv gantt svg load swf save segments sizes
      telemetry trace_ndjson domains =
    (* The table's last row is Theorem 1's bound at --eps: an eps it
       rejects is a usage error before anything is generated or written. *)
    if not (eps > 0. && eps < 1.) then
      invalid_arg (Printf.sprintf "--eps must lie in (0,1) (got %g)" eps);
    apply_domains domains;
    let entry = policy ~eps policy_name in
    let gen = apply_sizes (workload_of_name ~n ~m workload) sizes in
    (* A whole instance is held only when it is read from a file or saved
       to one; otherwise the generator draws each job as it is fed. *)
    let instance =
      match (load, swf, save) with
      | Some path, _, _ -> (
          match Serialize.load_instance ~path with
          | Ok inst -> Some inst
          | Error msg ->
              prerr_endline ("failed to load instance: " ^ msg);
              exit 1)
      | None, Some path, _ -> (
          match Sched_workload.Swf.load ~path ~max_jobs:n ~m () with
          | Ok inst -> Some inst
          | Error msg ->
              prerr_endline ("failed to import SWF trace: " ^ msg);
              exit 1)
      | None, None, Some _ -> Some (Gen.instance gen ~seed)
      | None, None, None -> None
    in
    (match (save, instance) with
    | Some path, Some inst -> Serialize.save_instance ~path inst
    | _ -> ());
    let name, machines, jobs =
      match instance with
      | Some inst ->
          (inst.Instance.name, inst.Instance.machines, Array.to_seq (Instance.jobs_by_release inst))
      | None -> (Gen.label gen ~seed, Gen.fleet gen, Gen.jobs gen ~seed)
    in
    let module Trace = Sched_sim.Trace in
    let module Check = Sched_check.Stream_check in
    let obs = match telemetry with None -> None | Some _ -> Some (Sched_obs.Obs.create ()) in
    (* The session's row sink.  Each arrival's rows go to the checker and
       to --trace-ndjson, then are released, so the trace holds one
       arrival's rows at a time. *)
    let trace = Trace.create () in
    let check = Check.create ~mode:(PR.check_mode entry) ~machines:(Array.length machines) () in
    let lines = Buffer.create 65536 in
    let sink =
      match trace_ndjson with
      | None -> None
      | Some "-" -> Some stdout
      | Some path -> Some (open_out path)
    in
    (* On stdout the trace lines follow the telemetry snapshot, which is
       only known at close, so they wait when both go there. *)
    let hold = trace_ndjson = Some "-" && telemetry = Some "-" in
    let take_rows () =
      Check.rows check (Trace.recorder trace) ~newest:(Trace.unreleased trace);
      (match sink with
      | Some oc ->
          Sched_sim.Trace_export.add_lines lines trace;
          if (not hold) && Buffer.length lines >= 65536 then begin
            Buffer.output_buffer oc lines;
            Buffer.clear lines
          end
      | None -> ());
      Trace.release trace (Trace.length trace)
    in
    (* The volume bound, added up in feed order as Lower_bounds.volume
       adds it up over a whole instance (on the fleet as given:
       speed-augmented's speed-up is the algorithm's, not OPT's). *)
    let min_time = Sched_baselines.Lower_bounds.min_time machines in
    let lb = ref 0. in
    (* Only the schedule-drawing flags need the schedule: otherwise the
       session retires each job once it settles. *)
    let retire = not (gantt || Option.is_some svg || Option.is_some segments) in
    let s = entry.PR.open_stream ~trace ?obs ~retire ~name ~machines () in
    Seq.iter
      (fun (j : Job.t) ->
        s.PR.ss_feed j;
        Check.feed check j;
        lb := !lb +. min_time j;
        s.PR.ss_drain_until j.Job.release;
        take_rows ())
      jobs;
    let schedule, live = s.PR.ss_close () in
    take_rows ();
    Check.close check;
    (match (telemetry, obs) with
    | Some target, Some o -> write_output target (Sched_obs.Export.json (Sched_obs.Obs.registry o))
    | _ -> ());
    (match sink with
    | Some oc ->
        Buffer.output_buffer oc lines;
        if oc != stdout then close_out oc
    | None -> ());
    (match Check.violations check with
    | [] -> ()
    | vs ->
        Format.eprintf "rejsched: invalid schedule: %a@." Violation.pp_list vs;
        exit 3);
    let f = live.Sched_sim.Driver.flow and r = live.Sched_sim.Driver.rejection in
    let table =
      Sched_stats.Table.create
        ~title:(Printf.sprintf "%s on %s (n=%d m=%d seed=%d)" policy_name workload n m seed)
        ~columns:[ "metric"; "value" ]
    in
    let cell = Sched_stats.Table.cell_float in
    Sched_stats.Table.add_rows table
      [
        [ "total flow (completed)"; cell f.Metrics.total ];
        [ "total flow (incl. rejected)"; cell f.Metrics.total_with_rejected ];
        [ "weighted flow"; cell f.Metrics.weighted ];
        [ "max flow"; cell f.Metrics.max_flow ];
        [ "mean flow"; cell f.Metrics.mean_flow ];
        [ "max stretch"; cell f.Metrics.max_stretch ];
        [ "makespan"; cell live.Sched_sim.Driver.makespan ];
        [ "rejected jobs"; Sched_stats.Table.cell_int r.Metrics.count ];
        [ "rejected fraction"; cell r.Metrics.fraction ];
        [ "rejected mid-run"; Sched_stats.Table.cell_int r.Metrics.mid_run ];
        [ "volume lower bound"; cell !lb ];
        [ "flow / volume-LB"; cell (f.Metrics.total_with_rejected /. !lb) ];
        [ "Theorem 1 bound"; cell (Rejection.Bounds.flow_competitive ~eps) ];
      ];
    if csv then print_string (Sched_stats.Table.to_csv table) else Sched_stats.Table.print table;
    match schedule with
    | None -> ()
    | Some schedule -> (
        if gantt then print_string (Gantt.render schedule);
        (match svg with Some path -> Svg.save ~path schedule | None -> ());
        match segments with
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Serialize.segments_to_csv schedule))
        | None -> ())
  in
  let term =
    Term.(
      const action $ policy_arg $ workload_arg $ n_arg $ m_arg $ seed_arg $ eps_arg $ csv_arg
      $ gantt_arg $ svg_arg $ load_arg $ swf_arg $ save_arg $ segments_arg $ sizes_arg
      $ telemetry_arg $ trace_ndjson_arg $ domains_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one policy on one synthetic workload and print its metrics.") term

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let id_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"ID" ~doc:"Experiment id (e1..e9, e11..e15) or 'all'.")
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Smaller instances, fewer seeds.") in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Also write every table as a CSV file into DIR (created if missing), plus a MANIFEST.")
  in
  let action id quick csv out domains =
    apply_domains domains;
    let manifest = Buffer.create 256 in
    let slugify s =
      String.map (fun c -> if ('a' <= c && c <= 'z') || ('0' <= c && c <= '9') then c else '-')
        (String.lowercase_ascii s)
    in
    let write_csv eid t =
      match out with
      | None -> ()
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let name = Printf.sprintf "%s_%s.csv" eid (slugify (Sched_stats.Table.title t)) in
          let name = if String.length name > 80 then String.sub name 0 80 ^ ".csv" else name in
          Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
              Out_channel.output_string oc (Sched_stats.Table.to_csv t));
          Buffer.add_string manifest
            (Printf.sprintf "%s,%s,%s\n" eid name (Sched_stats.Table.title t));
          (* When the first column is numeric (the E2/E5-style "figures"),
             also emit an SVG line chart of the remaining numeric columns. *)
          (match Sched_stats.Table.columns t with
          | xcol :: _ -> (
              match Sched_stats.Chart.of_table ~x:xcol t with
              | [] -> ()
              | series
                when List.exists (fun s -> List.length s.Sched_stats.Chart.points >= 2) series
                ->
                  let chart =
                    Sched_stats.Chart.render ~log_y:true
                      ~title:(Sched_stats.Table.title t) ~x_label:xcol ~y_label:"value" series
                  in
                  Sched_stats.Chart.save
                    ~path:(Filename.concat dir (Filename.remove_extension name ^ ".svg"))
                    chart
              | _ -> ())
          | [] -> ())
    in
    let emit eid tables =
      List.iter
        (fun t ->
          if csv then print_string (Sched_stats.Table.to_csv t) else Sched_stats.Table.print t;
          write_csv eid t)
        tables
    in
    (match id with
    | "all" ->
        List.iter
          (fun (e, tables) ->
            Printf.printf "[%s] %s (%s)\n" e.Sched_experiments.Registry.id
              e.Sched_experiments.Registry.title e.Sched_experiments.Registry.reproduces;
            emit e.Sched_experiments.Registry.id tables)
          (Sched_experiments.Registry.run_all ~quick ~pool:(Sched_stats.Pool.default ()) ())
    | id -> (
        match Sched_experiments.Registry.find id with
        | Some e -> emit id (e.Sched_experiments.Registry.run ~obs:None ~quick)
        | None -> invalid_arg (Printf.sprintf "unknown experiment %S (see 'rejsched list')" id)));
    match out with
    | Some dir when Buffer.length manifest > 0 ->
        Out_channel.with_open_text (Filename.concat dir "MANIFEST.csv") (fun oc ->
            Out_channel.output_string oc ("experiment,file,title\n" ^ Buffer.contents manifest))
    | _ -> ()
  in
  let term =
    Term.(
      const action $ id_arg $ quick_arg $ csv_arg $ out_arg $ domains_arg)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's experiment tables (E1..E9, E11..E15, see EXPERIMENTS.md).")
    term

(* ------------------------------------------------------------------ *)
(* adversary                                                           *)

let adversary_cmd =
  let game_arg =
    Arg.(value & pos 0 string "flow" & info [] ~docv:"GAME" ~doc:"'flow' (Lemma 1) or 'energy' (Lemma 2).")
  in
  let l_arg = Arg.(value & opt float 16. & info [ "L" ] ~docv:"L" ~doc:"Lemma 1 scale (Delta = L^2).") in
  let action game l eps alpha =
    match game with
    | "flow" ->
        let play name =
          let entry = policy ~eps name in
          let run inst = fst (entry.PR.run inst) in
          let result, schedule = Sched_workload.Adversary_flow.run_two_phase ~run ~eps ~l in
          Printf.printf
            "%-18s alg flow = %10.2f  adversary = %10.2f  ratio = %7.2f  (sqrt Delta = %.1f)\n"
            name
            (Metrics.flow schedule).Metrics.total_with_rejected
            result.Sched_workload.Adversary_flow.adversary_cost
            ((Metrics.flow schedule).Metrics.total_with_rejected
            /. result.Sched_workload.Adversary_flow.adversary_cost)
            (sqrt result.Sched_workload.Adversary_flow.delta)
        in
        play "immediate-never";
        play "flow-reject"
    | "energy" ->
        let st = Rejection.Energy_config_greedy.continuous ~alpha () in
        let alg =
          {
            Sched_workload.Adversary_energy.name = "config-greedy";
            place =
              (fun ~release ~deadline ~volume ->
                Rejection.Energy_config_greedy.continuous_place st ~release ~deadline ~volume);
          }
        in
        let r = Sched_workload.Adversary_energy.run ~alpha alg in
        Printf.printf
          "alpha=%g rounds=%d alg-energy=%.3f adv-energy=%.3f ratio=%.3f  ((a/9)^a=%.4f, a^a=%.1f)\n"
          alpha r.Sched_workload.Adversary_energy.rounds r.Sched_workload.Adversary_energy.alg_energy
          r.Sched_workload.Adversary_energy.adv_energy
          (r.Sched_workload.Adversary_energy.alg_energy
          /. r.Sched_workload.Adversary_energy.adv_energy)
          (Rejection.Bounds.energy_lb ~alpha)
          (Rejection.Bounds.energy_competitive ~alpha)
    | other -> invalid_arg (Printf.sprintf "unknown game %S (one of: flow, energy)" other)
  in
  let term = Term.(const action $ game_arg $ l_arg $ eps_arg $ alpha_arg) in
  Cmd.v (Cmd.info "adversary" ~doc:"Play a lower-bound game (Lemma 1 or Lemma 2).") term

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let gen_cmd =
  let out_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Output path.")
  in
  let action out workload n m seed sizes =
    let inst = Gen.instance (apply_sizes (workload_of_name ~n ~m workload) sizes) ~seed in
    Serialize.save_instance ~path:out inst;
    Format.printf "%a -> %s@." Instance.pp_stats inst out
  in
  let term = Term.(const action $ out_arg $ workload_arg $ n_arg $ m_arg $ seed_arg $ sizes_arg) in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic instance and save it (load with run --load).")
    term

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let fuzz_cmd =
  let budget_arg =
    Arg.(value & opt int 60
         & info [ "budget" ] ~docv:"N" ~doc:"Number of scenarios to evaluate.")
  in
  let telemetry_arg =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"FILE"
             ~doc:"Record oracle telemetry (schedules audited, violations by checker) and write \
                   the JSON snapshot to FILE, or to stdout when FILE is '-'.")
  in
  let write_corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "write-corpus" ] ~docv:"DIR"
             ~doc:"Write every shrunk failure as a replayable fuzz-case file into DIR.")
  in
  let write_seed_corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "write-seed-corpus" ] ~docv:"DIR"
             ~doc:"Write the built-in seed corpus into DIR (the checked-in test/fuzz_corpus \
                   files are exactly this rendering) and exit without fuzzing.")
  in
  let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-generation progress.") in
  let forensics_arg =
    Arg.(value & opt (some string) None
         & info [ "forensics" ] ~docv:"DIR"
             ~doc:"Write each failure's flight-recorder dump (the shrunk repro replayed with a \
                   recorder attached, last decisions as rejsched.trace/2 NDJSON) into DIR.")
  in
  let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 in
  let write_case dir c =
    Out_channel.with_open_text
      (Filename.concat dir (Sched_fuzz.Corpus.filename c))
      (fun oc -> Out_channel.output_string oc (Sched_fuzz.Corpus.render c))
  in
  let action seed budget domains telemetry write_corpus write_seed_corpus forensics quiet =
    apply_domains domains;
    match write_seed_corpus with
    | Some dir ->
        ensure_dir dir;
        let cases = Sched_fuzz.Corpus.seeds () in
        List.iter (write_case dir) cases;
        Printf.printf "wrote %d seed cases to %s\n" (List.length cases) dir
    | None ->
        let obs = match telemetry with None -> None | Some _ -> Some (Sched_obs.Obs.create ()) in
        let cfg = Sched_fuzz.Fuzz.config ~budget ~seed () in
        let progress = if quiet then fun _ -> () else print_endline in
        let report =
          Sched_fuzz.Fuzz.run ~progress
            ?registry:(Option.map Sched_obs.Obs.registry obs)
            ~pool:(Sched_stats.Pool.default ()) cfg
        in
        print_string (Sched_fuzz.Fuzz.report_to_string report);
        (match (telemetry, obs) with
        | Some target, Some o -> write_output target (Sched_obs.Export.json (Sched_obs.Obs.registry o))
        | _ -> ());
        (match write_corpus with
        | Some dir when report.Sched_fuzz.Fuzz.failures <> [] ->
            ensure_dir dir;
            List.iteri
              (fun k (f : Sched_fuzz.Fuzz.failure) ->
                write_case dir
                  {
                    Sched_fuzz.Corpus.name = Printf.sprintf "fail-%02d-%s-%s" k f.policy f.prop;
                    policy = f.policy;
                    instance = f.shrunk;
                  })
              report.Sched_fuzz.Fuzz.failures
        | _ -> ());
        (match forensics with
        | Some dir when report.Sched_fuzz.Fuzz.failures <> [] ->
            ensure_dir dir;
            List.iteri
              (fun k (f : Sched_fuzz.Fuzz.failure) ->
                if f.forensics <> "" then
                  Out_channel.with_open_text
                    (Filename.concat dir
                       (Printf.sprintf "fail-%02d-%s-%s.trace.ndjson" k f.policy f.prop))
                    (fun oc -> Out_channel.output_string oc f.forensics))
              report.Sched_fuzz.Fuzz.failures
        | _ -> ());
        if report.Sched_fuzz.Fuzz.failures <> [] then begin
          (* The shrunk witnesses go to stderr in the Serialize format, so a
             failing CI run is immediately replayable. *)
          List.iter
            (fun (f : Sched_fuzz.Fuzz.failure) ->
              prerr_endline
                (Printf.sprintf "# policy %s, property %s, from %s: %s" f.policy f.prop
                   (Sched_fuzz.Scenario.label f.scenario) f.detail);
              prerr_string (Serialize.instance_to_string f.shrunk))
            report.Sched_fuzz.Fuzz.failures;
          exit 3
        end
  in
  let term =
    Term.(
      const action $ seed_arg $ budget_arg $ domains_arg $ telemetry_arg $ write_corpus_arg
      $ write_seed_corpus_arg $ forensics_arg $ quiet_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz every registered policy against the schedule-invariant oracle and metamorphic \
             properties; exits 3 with shrunk repro instances on stderr when a violation is found.")
    term

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let trace_cmd =
  let policy_arg =
    Arg.(value & opt (some string) None
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:"Registry policy or alias to replay (see 'list').  Defaults to the case \
                   file's policy with --case, to flow-reject otherwise.")
  in
  let case_arg =
    Arg.(value & opt (some string) None
         & info [ "case" ] ~docv:"FILE"
             ~doc:"Replay a fuzz-corpus case file (as written by fuzz --write-corpus); the \
                   case embeds both the instance and the policy.")
  in
  let load_arg =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE" ~doc:"Load the instance from FILE instead of generating it.")
  in
  let ring_cap_arg =
    Arg.(value & opt int Sched_obs.Recorder.default_capacity
         & info [ "ring-cap" ] ~docv:"N"
             ~doc:"Flight-recorder ring capacity; when the run emits more events the oldest \
                   are overwritten.")
  in
  let last_arg =
    Arg.(value & opt (some int) None
         & info [ "last" ] ~docv:"N" ~doc:"Keep only the newest N events in the NDJSON export.")
  in
  let out_ndjson_arg =
    Arg.(value & opt string "trace.ndjson"
         & info [ "out-ndjson" ] ~docv:"FILE"
             ~doc:"Write the rejsched.trace/2 NDJSON export to FILE, or to stdout when FILE \
                   is '-'.")
  in
  let out_chrome_arg =
    Arg.(value & opt string "trace-chrome.json"
         & info [ "out-chrome" ] ~docv:"FILE"
             ~doc:"Write the Chrome trace_event JSON (load in Perfetto / chrome://tracing) to \
                   FILE, or to stdout when FILE is '-'.")
  in
  let action policy_name case load workload n m seed sizes ring_cap last out_ndjson out_chrome =
    if ring_cap < 1 then begin
      prerr_endline "rejsched: --ring-cap must be >= 1";
      exit 2
    end;
    if Option.fold ~none:false ~some:(fun k -> k < 0) last then begin
      prerr_endline "rejsched: --last must be >= 0";
      exit 2
    end;
    let inst, case_policy =
      match (case, load) with
      | Some path, _ -> (
          let text = In_channel.with_open_text path In_channel.input_all in
          match Sched_fuzz.Corpus.parse text with
          | Ok c -> (c.Sched_fuzz.Corpus.instance, Some c.Sched_fuzz.Corpus.policy)
          | Error msg ->
              prerr_endline ("failed to parse case file: " ^ msg);
              exit 1)
      | None, Some path -> (
          match Serialize.load_instance ~path with
          | Ok inst -> (inst, None)
          | Error msg ->
              prerr_endline ("failed to load instance: " ^ msg);
              exit 1)
      | None, None ->
          (Gen.instance (apply_sizes (workload_of_name ~n ~m workload) sizes) ~seed, None)
    in
    let entry =
      match (policy_name, case_policy) with
      | Some p, _ | None, Some p -> policy p
      | None, None -> policy "flow-reject"
    in
    let recorder = Sched_obs.Recorder.create ~capacity:ring_cap () in
    ignore (entry.PR.run ~recorder inst);
    let ndjson = Sched_sim.Trace_export.recorder_to_ndjson ?last recorder in
    let chrome = Sched_sim.Perfetto.to_chrome ~machines:(Instance.m inst) recorder in
    (match Sched_sim.Perfetto.validate chrome with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("rejsched: internal error: invalid Chrome trace produced: " ^ msg);
        exit 1);
    write_output out_ndjson ndjson;
    write_output out_chrome chrome;
    Printf.eprintf "trace: %d events recorded (%d retained, %d dropped), policy %s -> %s, %s\n%!"
      (Sched_obs.Recorder.total recorder)
      (Sched_obs.Recorder.length recorder)
      (Sched_obs.Recorder.dropped recorder)
      entry.PR.name out_ndjson out_chrome
  in
  let term =
    Term.(
      const action $ policy_arg $ case_arg $ load_arg $ workload_arg $ n_arg $ m_arg $ seed_arg
      $ sizes_arg $ ring_cap_arg $ last_arg $ out_ndjson_arg $ out_chrome_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay an instance with the flight recorder attached and export the decision \
             trace as rejsched.trace/2 NDJSON plus Chrome trace_event JSON for Perfetto.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

(* The streaming front end over Driver.Session: arrival records come in
   as NDJSON lines, decision events go out as rejsched.trace/1 lines the
   moment the batch that caused them is drained, and progress/summary
   records go out under the rejsched.serve/1 schema.  The engine is the
   same session the batch runner wraps, so the decisions are
   byte-identical to what 'rejsched run' would have made on the same
   jobs. *)

let serve_schema = "rejsched.serve/1"

(* One arrival per line:
     {"job": 0, "release": 1.5, "sizes": [2.0, 3.0], "weight": 1.0, "deadline": 4.0}
   weight and deadline are optional, but a present one must be a number
   (a string or null is a bad arrival, not a default); a size may be the
   quoted token "Infinity" (a forbidden machine), matching what the
   NDJSON writers emit for non-finite floats.  The job id must be a
   non-negative integer that fits an int: a fraction, a negative or an
   out-of-range number is a bad arrival, not a silently truncated id. *)
let job_of_line line =
  let module N = Sched_obs.Ndjson in
  match N.parse line with
  | Error msg -> Error ("bad JSON: " ^ msg)
  | Ok j -> (
      let num name =
        match N.member name j with Some (N.Jnum v) -> Some v | _ -> None
      in
      let optional name =
        match N.member name j with
        | None -> Ok None
        | Some (N.Jnum v) -> Ok (Some v)
        | Some _ -> Error (Printf.sprintf "\"%s\" must be a number" name)
      in
      match (num "job", num "release", N.member "sizes" j, optional "weight", optional "deadline") with
      | Some id, _, _, _, _ when not (Float.is_integer id && id >= 0. && id < float_of_int max_int) ->
          Error "\"job\" must be a non-negative integer"
      | _, _, _, Error msg, _ | _, _, _, _, Error msg -> Error msg
      | Some id, Some release, Some (N.Jarr raw), Ok weight, Ok deadline -> (
          (* The sizes in one pass over the list; false at the first
             one that is not a number. *)
          let sizes = Array.make (List.length raw) 0. in
          let rec fill k = function
            | [] -> true
            | N.Jnum v :: rest ->
                sizes.(k) <- v;
                fill (k + 1) rest
            | N.Jstr "Infinity" :: rest ->
                sizes.(k) <- infinity;
                fill (k + 1) rest
            | _ -> false
          in
          if not (fill 0 raw) then Error "sizes must be numbers"
          else
            match
              Job.create ~id:(int_of_float id) ~release ?weight ?deadline ~sizes ()
            with
            | job -> Ok job
            | exception Invalid_argument msg -> Error msg)
      | _ -> Error "need numeric \"job\", \"release\" and a \"sizes\" array")

let serve_cmd =
  let policy_arg =
    Arg.(value & opt string "flow-reject"
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:"Registry policy or alias to serve under (see 'list').  Ignored with \
                   --restore: a snapshot names the policy it was frozen under.")
  in
  let input_arg =
    Arg.(value & opt string "-"
         & info [ "input" ] ~docv:"FILE"
             ~doc:"Read arrival NDJSON from FILE instead of stdin ('-').  Pipe 'tail -f' in \
                   for a live feed.")
  in
  let batch_arg =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"N"
             ~doc:"Drain and emit decisions every N arrivals (default 1: react to each \
                   arrival as it lands).")
  in
  let checkpoint_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"At end of input, freeze the live session into a snapshot at FILE ('-' for \
                   stdout) instead of closing it; a later 'serve --restore FILE' resumes \
                   byte-identically.")
  in
  let restore_arg =
    Arg.(value & opt (some string) None
         & info [ "restore" ] ~docv:"FILE"
             ~doc:"Resume from a snapshot written by --checkpoint.  Corrupt or truncated \
                   snapshots are rejected (exit 2) before any state is touched.")
  in
  let action policy_name input batch checkpoint restore m =
    if batch < 1 then invalid_arg (Printf.sprintf "--batch must be >= 1 (got %d)" batch);
    if m < 1 then invalid_arg (Printf.sprintf "--machines must be >= 1 (got %d)" m);
    let entry, session =
      match restore with
      | Some path -> (
          match Sched_sim.Snapshot.unwrap (Sched_sim.Snapshot.read_file path) with
          | Error e ->
              prerr_endline
                (Printf.sprintf "rejsched: cannot restore %s: %s" path
                   (Sched_sim.Snapshot.error_to_string e));
              exit 2
          | Ok (pname, payload) -> (
              match PR.find pname with
              | None ->
                  prerr_endline ("rejsched: snapshot names unknown policy: " ^ pname);
                  exit 2
              | Some entry -> (
                  match entry.PR.restore_stream payload with
                  | s -> (entry, s)
                  | exception Invalid_argument msg ->
                      prerr_endline ("rejsched: cannot restore " ^ path ^ ": " ^ msg);
                      exit 2)))
      | None ->
          (* Serve never reads the closing schedule, so it always
             retires: a settled job's slot goes to a later arrival, so
             memory tracks the jobs in flight and job ids may be any
             non-negative ints, dense or not. *)
          let entry = policy policy_name in
          let trace = Sched_sim.Trace.create () in
          (entry, entry.PR.open_stream ~trace ~retire:true ~machines:(Machine.fleet m) ())
    in
    (* With '--checkpoint -' the snapshot bytes own stdout; every NDJSON
       line moves to stderr so the two streams never interleave.  Lines
       collect in one buffer and go out with one write and one flush per
       batch, so a live reader sees each batch as soon as it is drained. *)
    let oc = if checkpoint = Some "-" then stderr else stdout in
    let out = Buffer.create 65536 in
    let write_out () =
      Buffer.output_buffer oc out;
      Buffer.clear out;
      flush oc
    in
    (* The trace's release mark is the emission cursor: each batch emits
       the unreleased decisions and releases them, so the trace retains
       one batch's rows, not the stream's. *)
    let emit_decisions () =
      Option.iter
        (fun t ->
          Sched_sim.Trace_export.add_lines out t;
          Sched_sim.Trace.release t (Sched_sim.Trace.length t))
        (session.PR.ss_trace ())
    in
    let module N = Sched_obs.Ndjson in
    let emit fields =
      Buffer.add_string out (N.line ~schema:serve_schema fields);
      Buffer.add_char out '\n'
    in
    (* One progress record per batch, so per arrival at --batch 1: its
       fields go straight into [out]. *)
    let progress_head = "{\"schema\":\"" ^ serve_schema ^ "\",\"type\":\"progress\",\"fed\":" in
    let progress drained =
      Buffer.add_string out progress_head;
      Buffer.add_string out (N.int_repr (session.PR.ss_fed ()));
      Buffer.add_string out ",\"drained\":";
      Buffer.add_string out (N.float_repr drained);
      Buffer.add_string out ",\"next_key\":";
      Buffer.add_string out (N.float_repr (session.PR.ss_next_key ()));
      Buffer.add_string out "}\n"
    in
    let summary kind (live : Sched_sim.Driver.live_metrics) =
      emit
        [
          ("type", N.String kind);
          ("policy", N.String entry.PR.name);
          ("fed", N.Int (session.PR.ss_fed ()));
          ("flow_total", N.Float live.flow.Metrics.total);
          ("flow_weighted", N.Float live.flow.Metrics.weighted);
          ("flow_max", N.Float live.flow.Metrics.max_flow);
          ("rejected", N.Int live.rejection.Metrics.count);
          ("rejected_weight", N.Float live.rejection.Metrics.weight);
          ("rejected_midrun", N.Int live.rejection.Metrics.mid_run);
          ("energy", N.Float live.energy);
          ("makespan", N.Float live.makespan);
        ];
      write_out ()
    in
    let ic = if input = "-" then stdin else open_in input in
    let pending = ref 0 in
    let last_release = ref neg_infinity in
    let flush_batch () =
      if !pending > 0 then begin
        session.PR.ss_drain_until !last_release;
        emit_decisions ();
        progress !last_release;
        write_out ();
        pending := 0
      end
    in
    let feed line =
      match job_of_line line with
      | Error msg ->
          prerr_endline ("rejsched: bad arrival: " ^ msg);
          exit 1
      | Ok job -> (
          match session.PR.ss_feed job with
          | () ->
              last_release := job.Job.release;
              incr pending;
              if !pending >= batch then flush_batch ()
          | exception Invalid_argument msg ->
              prerr_endline ("rejsched: bad arrival: " ^ msg);
              exit 1)
    in
    let rec pump () =
      match In_channel.input_line ic with
      | None -> ()
      | Some line ->
          if String.trim line <> "" then feed line;
          pump ()
    in
    Fun.protect ~finally:(fun () -> if input <> "-" then close_in_noerr ic) pump;
    flush_batch ();
    match checkpoint with
    | Some target ->
        (* Freeze, don't close: queued future events ride inside the
           snapshot and a later --restore picks up mid-stream. *)
        let payload = session.PR.ss_freeze () in
        write_output target (Sched_sim.Snapshot.wrap ~policy:entry.PR.name ~payload);
        summary "suspended" (session.PR.ss_live ())
    | None ->
        let _schedule, live = session.PR.ss_close () in
        emit_decisions ();
        summary "closed" live
  in
  let term =
    Term.(
      const action $ policy_arg $ input_arg $ batch_arg $ checkpoint_arg $ restore_arg $ m_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the incremental scheduling engine as a service: read NDJSON arrival events \
             from stdin or a file, emit rejsched.trace/1 decision lines and rejsched.serve/1 \
             progress records as they happen, and optionally suspend to / resume from a \
             checkpoint snapshot.")
    term

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)

let bounds_cmd =
  let action eps alpha =
    let module B = Rejection.Bounds in
    (* Every row depends on eps or alpha: check both before printing any. *)
    if not (eps > 0. && eps < 1.) then
      invalid_arg (Printf.sprintf "--eps must lie in (0,1) (got %g)" eps);
    if not (alpha > 1.) then invalid_arg (Printf.sprintf "--alpha must exceed 1 (got %g)" alpha);
    Printf.printf "Theorem 1 (flow-time):\n";
    Printf.printf "  competitive ratio bound  2((1+e)/e)^2 = %.3f\n" (B.flow_competitive ~eps);
    Printf.printf "  rejection budget         2e           = %.3f\n" (B.flow_rejection_budget ~eps);
    Printf.printf "  rule thresholds          ceil(1/e)=%d, ceil(1+1/e)=%d\n"
      (B.rule1_threshold ~eps) (B.rule2_threshold ~eps);
    Printf.printf "Theorem 2 (flow+energy, alpha=%g):\n" alpha;
    Printf.printf "  gamma (paper's closed form)      = %.4f\n" (B.gamma ~eps ~alpha);
    Printf.printf "  gamma (numerically optimized)    = %.4f\n" (B.gamma_best ~eps ~alpha);
    Printf.printf "  competitive ratio (exact proof)  = %.3f\n" (B.flow_energy_competitive ~eps ~alpha);
    Printf.printf "  envelope (1+1/e)^(a/(a-1))       = %.3f\n" (B.flow_energy_envelope ~eps ~alpha);
    Printf.printf "Theorem 3 / Lemma 2 (energy, alpha=%g):\n" alpha;
    Printf.printf "  upper bound alpha^alpha          = %.3f\n" (B.energy_competitive ~alpha);
    Printf.printf "  lower bound (alpha/9)^alpha      = %.5f\n" (B.energy_lb ~alpha);
    Printf.printf "  smoothness mu=(a-1)/a            = %.4f\n" (B.smooth_mu ~alpha);
    Printf.printf "  smoothness lambda~a^(a-1)        = %.3f\n" (B.smooth_lambda ~alpha)
  in
  let term = Term.(const action $ eps_arg $ alpha_arg) in
  Cmd.v (Cmd.info "bounds" ~doc:"Print the paper's theoretical constants.") term

(* ------------------------------------------------------------------ *)
(* list                                                                *)

let list_cmd =
  let action () =
    print_endline "workloads:";
    List.iter (fun (w, _) -> print_endline ("  " ^ w)) Suite.flow_menu;
    print_endline "policies (aliases in parentheses):";
    List.iter
      (fun (e : PR.entry) ->
        match List.filter_map (fun (a, p) -> if p = e.PR.name then Some a else None) PR.aliases with
        | [] -> print_endline ("  " ^ e.PR.name)
        | names -> Printf.printf "  %s (%s)\n" e.PR.name (String.concat ", " names))
      PR.all;
    print_endline "experiments:";
    List.iter
      (fun e ->
        Printf.printf "  %-3s %s (%s)\n" e.Sched_experiments.Registry.id
          e.Sched_experiments.Registry.title e.Sched_experiments.Registry.reproduces)
      Sched_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, policies and experiments.") Term.(const action $ const ())

let () =
  let doc = "Online non-preemptive scheduling with rejections (SPAA 2018 reproduction)." in
  let info = Cmd.info "rejsched" ~version:"1.0.0" ~doc in
  (* Usage errors raised as Invalid_argument (unknown policy / workload,
     ill-formed policy decisions surfaced by the driver) are user input
     problems, not crashes: report on stderr and exit 2, no backtrace.
     So is a file that cannot be opened (Sys_error: a missing --input or
     --restore file, an output path in a missing directory).
     Command-line parse errors (unknown flags, ill-typed values) exit 2
     too, instead of cmdliner's own code. *)
  exit
    (try
       let code =
         Cmd.eval ~catch:false
           (Cmd.group info
              [ run_cmd; serve_cmd; experiment_cmd; adversary_cmd; fuzz_cmd; trace_cmd; bounds_cmd; gen_cmd; list_cmd ])
       in
       if code = Cmd.Exit.cli_error then 2 else code
     with Invalid_argument msg | Sys_error msg ->
       prerr_endline ("rejsched: " ^ msg);
       2)
