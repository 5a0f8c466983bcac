(* Shared helpers for the test suite. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A directory of checked-in test data: fuzz_corpus, snapshots,
   lint_fixtures.  dune runtest runs with cwd _build/default/test; a
   suite run straight from the repository root (dune exec
   test/test_main.exe -- test NAME), in any build dir and profile, reads
   the checked-in tree under test/. *)
let data_dir name = if Sys.file_exists name then name else Filename.concat "test" name

(* A directory of test data the build writes (the typed lint fixtures'
   .cmt files): next to the running test executable, whichever build dir
   holds it. *)
let built_dir name = Filename.concat (Filename.dirname Sys.executable_name) name

(* A trace's unreleased entries as trace/1 NDJSON, one line each. *)
let trace_ndjson t =
  let buf = Buffer.create 4096 in
  Sched_sim.Trace_export.add_lines buf t;
  Buffer.contents buf

(* The checked-in corpus cases' file names, sorted. *)
let corpus_files () =
  Sys.readdir (data_dir "fuzz_corpus")
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort String.compare

(* Whether the schedule passes the validator under the given mode. *)
let valid ?allow_parallel ?allow_restarts ?check_deadlines s =
  let mode = Sched_model.Validator.mode ?allow_parallel ?allow_restarts ?check_deadlines () in
  match Sched_model.Schedule.violations ~mode s with [] -> true | _ :: _ -> false

(* In-place Fisher-Yates shuffle. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Sched_stats.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* A tiny fixed instance: m machines, jobs given as (release, sizes). *)
let instance ?(name = "fixture") ?(machines = 1) jobs =
  let jobs =
    List.mapi
      (fun id (release, sizes) -> Sched_model.Job.create ~id ~release ~sizes ())
      jobs
  in
  Sched_model.Instance.create ~name
    ~machines:(Sched_model.Machine.fleet machines)
    ~jobs ()

let weighted_instance ?(name = "fixture") ?(machines = 1) ?(alpha = 3.) jobs =
  let jobs =
    List.mapi
      (fun id (release, weight, sizes) ->
        Sched_model.Job.create ~id ~release ~weight ~sizes ())
      jobs
  in
  Sched_model.Instance.create ~name
    ~machines:(Sched_model.Machine.fleet ~alpha machines)
    ~jobs ()

let deadline_instance ?(name = "fixture") ?(machines = 1) ?(alpha = 3.) jobs =
  let jobs =
    List.mapi
      (fun id (release, deadline, sizes) ->
        Sched_model.Job.create ~id ~release ~deadline ~sizes ())
      jobs
  in
  Sched_model.Instance.create ~name
    ~machines:(Sched_model.Machine.fleet ~alpha machines)
    ~jobs ()

let completed_count (s : Sched_model.Schedule.t) =
  let open Sched_model in
  Array.fold_left
    (fun n (j : Job.t) ->
      match Schedule.outcome s j.Job.id with Outcome.Completed _ -> n + 1 | Outcome.Rejected _ -> n)
    0
    (Instance.jobs_by_release s.Schedule.instance)

let total_flow schedule =
  (Sched_model.Metrics.flow schedule).Sched_model.Metrics.total_with_rejected

(* Random instances with dyadic numerics: releases, sizes and weights are
   multiples of 1/4 (and machine speeds powers of two), so every sum or
   difference the simulator computes is exact in float arithmetic.  Two
   implementations that make the same decisions therefore produce
   byte-identical schedules — which is what the differential and replay
   suites assert. *)
let random_instance ?(weighted = false) ?(restricted = false) ?(alpha = 3.) ~seed ~n ~m () =
  let rng = Sched_stats.Rng.create seed in
  let quarters lo hi =
    (* A multiple of 1/4 in [lo, hi], both ends included. *)
    let steps = ((hi - lo) * 4) + 1 in
    (float_of_int lo +. (float_of_int (Sched_stats.Rng.int rng steps) /. 4.) : float)
  in
  let machines =
    Array.init m (fun id ->
        let speed = [| 0.5; 1.; 1.; 2. |].(Sched_stats.Rng.int rng 4) in
        Sched_model.Machine.create ~id ~speed ~alpha ())
  in
  let jobs =
    List.init n (fun id ->
        let sizes =
          Array.init m (fun _ ->
              if restricted && Sched_stats.Rng.float rng < 0.3 then Float.infinity
              else 0.25 +. quarters 0 8)
        in
        (* Keep at least one machine eligible. *)
        if not (Array.exists Float.is_finite sizes) then
          sizes.(Sched_stats.Rng.int rng m) <- 0.25 +. quarters 0 8;
        let release = quarters 0 (max 1 (n / 2)) in
        let weight = if weighted then 0.25 +. quarters 0 4 else 1. in
        Sched_model.Job.create ~id ~release ~weight ~sizes ())
  in
  Sched_model.Instance.create
    ~name:(Printf.sprintf "diff-n%d-m%d-s%d" n m seed)
    ~machines ~jobs ()

(* [Driver.run] keeping only the schedule. *)
let schedule_of ?trace ?obs policy instance =
  let s, _, _ = Sched_sim.Driver.run ?trace ?obs policy instance in
  s

(* Fails the test unless [Policy_registry.audit] passes the run. *)
let assert_audit ~what entry schedule live =
  match Sched_experiments.Policy_registry.audit entry schedule live with
  | [] -> ()
  | vs -> Alcotest.failf "%s: %s" what (Sched_check.Oracle.report vs)
