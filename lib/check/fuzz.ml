open Sched_model
module P = Sched_experiments.Policy_registry
module Oracle = Sched_check.Oracle
module Check_obs = Sched_check.Check_obs
module SSet = Set.Make (String)

type config = {
  seed : int;
  budget : int;
  policies : P.entry list;
  max_shrink : int;
  max_failures : int;
}

let config ?(budget = 60) ?(policies = P.all) ?(max_shrink = 400) ?(max_failures = 25) ~seed () =
  if budget < 1 then invalid_arg "Fuzz.config: budget must be >= 1";
  { seed; budget; policies; max_shrink; max_failures }

(* Forensics: replay the shrunk repro with a flight recorder attached
   and keep the trace/2 NDJSON tail.  The replay may itself raise — that
   can be the very failure — but the ring survives the exception, so
   whatever was recorded up to that point is exactly the evidence the
   post-mortem wants. *)
let forensics_last = 64

let capture_forensics (entry : P.entry) inst =
  let recorder = Sched_obs.Recorder.create ~capacity:4096 () in
  (try
     ignore (entry.P.run ~recorder inst)
   with _ -> ());
  Sched_sim.Trace_export.recorder_to_ndjson ~last:forensics_last recorder

type failure = {
  scenario : Scenario.t;
  policy : string;
  prop : string;
  detail : string;
  shrunk : Instance.t;
  forensics : string;
      (* trace/2 NDJSON tail from replaying [shrunk] with a recorder;
         "" when no entry could be replayed (e.g. generation failures). *)
}

type report = { evaluated : int; coverage : int; failures : failure list }

(* ------------------------------------------------------------------ *)
(* Property evaluation.  Everything below is pure in the instance and the
   registry entry, so scenario evaluations can fan out across pool domains
   and still merge deterministically. *)

let audit (entry : P.entry) inst =
  let sched, lm = entry.P.run inst in
  (sched, lm, P.audit entry sched lm)

let rel_close ~tol a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* The shuffled presentation order below only needs to be deterministic,
   not related to the run's scenario seed. *)
let permute_rng_seed = 42

let check_oracle entry inst =
  let _, _, vs = audit entry inst in
  match vs with [] -> None | vs -> Some (Oracle.report vs)

let check_permute entry inst =
  let base = Serialize.schedule_to_string (fst (entry.P.run inst)) in
  let permuted =
    Serialize.schedule_to_string
      (fst
         (entry.P.run
            (Sched_workload.Transform.permute_jobs (Sched_stats.Rng.create permute_rng_seed) inst)))
  in
  if String.equal base permuted then None
  else Some "schedule depends on job presentation order"

let check_relabel entry inst =
  let m = Instance.m inst in
  if m < 2 then None
  else begin
    let perm = Array.init m (fun i -> m - 1 - i) in
    let relabeled = Sched_workload.Transform.relabel_machines ~perm inst in
    let _, _, vs = audit entry relabeled in
    match vs with [] -> None | vs -> Some ("on relabeled machines: " ^ Oracle.report vs)
  end

let check_scale entry inst =
  let _, lm1 = entry.P.run inst in
  let _, lm2 = entry.P.run (Sched_workload.Transform.scale_time 2. inst) in
  let f1 = lm1.Sched_sim.Driver.flow and f2 = lm2.Sched_sim.Driver.flow in
  let r1 = lm1.Sched_sim.Driver.rejection and r2 = lm2.Sched_sim.Driver.rejection in
  if not (rel_close ~tol:1e-6 f2.Metrics.total (2. *. f1.Metrics.total)) then
    Some
      (Printf.sprintf "total flow %.17g after doubling time unit, expected %.17g"
         f2.Metrics.total (2. *. f1.Metrics.total))
  else if not (rel_close ~tol:1e-6 f2.Metrics.weighted (2. *. f1.Metrics.weighted)) then
    Some
      (Printf.sprintf "weighted flow %.17g after doubling time unit, expected %.17g"
         f2.Metrics.weighted (2. *. f1.Metrics.weighted))
  else if r1.Metrics.count <> r2.Metrics.count then
    Some
      (Printf.sprintf "rejection count changed under time rescaling: %d vs %d" r1.Metrics.count
         r2.Metrics.count)
  else None

(* Rebatch metamorphism: feeding the same jobs through an incremental
   session in arrival chunks — of any size pattern — must reproduce the
   one-shot batch schedule byte for byte.  Three deterministic patterns
   per instance: one-at-a-time, a fixed stride, and a varying stride
   that exercises chunk-boundary/horizon interplay. *)
let rebatch_patterns =
  [ ("chunk=1", fun _ -> 1); ("chunk=3", fun _ -> 3); ("chunk=1+(k mod 4)", fun k -> 1 + (k mod 4)) ]

let check_rebatch (entry : P.entry) inst =
  let base = Serialize.schedule_to_string (fst (entry.P.run inst)) in
  let jobs = Instance.jobs_by_release inst in
  let n = Array.length jobs in
  List.fold_left
    (fun acc (pat_name, width) ->
      match acc with
      | Some _ -> acc
      | None -> (
          let s =
            entry.P.open_stream ~name:inst.Instance.name ~machines:inst.Instance.machines ()
          in
          let k = ref 0 and round = ref 0 in
          while !k < n do
            let stop = min n (!k + width !round) in
            for i = !k to stop - 1 do
              s.P.ss_feed jobs.(i)
            done;
            s.P.ss_drain_until jobs.(stop - 1).Job.release;
            k := stop;
            incr round
          done;
          match s.P.ss_close () with
          | Some sched, _ ->
              if String.equal base (Serialize.schedule_to_string sched) then None
              else Some (Printf.sprintf "streamed schedule diverges from batch under %s" pat_name)
          | None, _ -> Some (pat_name ^ ": session returned no schedule")))
    None rebatch_patterns

let props =
  [
    ("oracle", check_oracle);
    ("permute", check_permute);
    ("relabel", check_relabel);
    ("scale", check_scale);
    ("rebatch", check_rebatch);
  ]

let property_fails entry prop inst =
  match List.assoc_opt prop props with
  | None -> invalid_arg (Printf.sprintf "Fuzz.property_fails: unknown property %S" prop)
  | Some f -> ( try f entry inst with e -> Some ("exception: " ^ Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Behavioural coverage: one bit per feature the run exhibited. *)

let feature_bits inst (sched : Schedule.t) (lm : Sched_sim.Driver.live_metrics) =
  let n = Instance.n inst in
  let per_job = Array.make (max 1 n) 0 in
  List.iter
    (fun (g : Schedule.segment) ->
      if g.Schedule.job >= 0 && g.Schedule.job < n then
        per_job.(g.Schedule.job) <- per_job.(g.Schedule.job) + 1)
    sched.Schedule.segments;
  let r = lm.Sched_sim.Driver.rejection in
  let bit b on acc = if on then acc lor (1 lsl b) else acc in
  0
  |> bit 0 (r.Metrics.count > 0)
  |> bit 1 (r.Metrics.mid_run > 0)
  |> bit 2 (Array.exists (fun c -> c > 1) per_job)
  |> bit 3 (Instance.has_deadlines inst)
  |> bit 4
       (Array.exists (fun (j : Job.t) -> j.Job.weight <> 1.) (Instance.jobs_by_release inst))

(* ------------------------------------------------------------------ *)
(* Per-scenario evaluation (runs on a pool domain). *)

type finding = { f_policy : string; f_prop : string; f_detail : string }

type eval_result = {
  e_cov : string list;  (** Coverage keys this scenario exhibited. *)
  e_audits : Violation.t list list;  (** One violation list per audited schedule. *)
  e_findings : finding list;
}

let evaluate policies scenario =
  match Scenario.instance scenario with
  | exception e ->
      {
        e_cov = [];
        e_audits = [];
        e_findings =
          [ { f_policy = "-"; f_prop = "generate"; f_detail = Printexc.to_string e } ];
      }
  | inst ->
      let cov = ref [] and audits = ref [] and findings = ref [] in
      List.iter
        (fun (entry : P.entry) ->
          (match audit entry inst with
          | exception e ->
              findings :=
                { f_policy = entry.P.name; f_prop = "oracle"; f_detail = "exception: " ^ Printexc.to_string e }
                :: !findings
          | sched, lm, vs ->
              audits := vs :: !audits;
              let key =
                Printf.sprintf "%s|%s|%02x" entry.P.name scenario.Scenario.family
                  (feature_bits inst sched lm)
              in
              cov := key :: !cov;
              if vs <> [] then
                findings :=
                  { f_policy = entry.P.name; f_prop = "oracle"; f_detail = Oracle.report vs }
                  :: !findings);
          List.iter
            (fun (prop, _) ->
              if prop <> "oracle" then
                match property_fails entry prop inst with
                | None -> ()
                | Some detail ->
                    findings := { f_policy = entry.P.name; f_prop = prop; f_detail = detail } :: !findings)
            props)
        policies;
      { e_cov = List.rev !cov; e_audits = List.rev !audits; e_findings = List.rev !findings }

(* ------------------------------------------------------------------ *)
(* Shrinking: greedily re-run the failing property on smaller instances. *)

let rebuild_jobs kept =
  List.mapi
    (fun id (j : Job.t) ->
      Job.create ~id ~release:j.Job.release ~weight:j.Job.weight ?deadline:j.Job.deadline
        ~sizes:j.Job.sizes ())
    kept

let drop_job_range inst lo hi =
  let jobs = Array.to_list (Instance.jobs_by_release inst) in
  let kept = List.filteri (fun k _ -> k < lo || k >= hi) jobs in
  if kept = [] then None
  else begin
    let machines = Array.init (Instance.m inst) (Instance.machine inst) in
    Some (Instance.create ~name:(inst.Instance.name ^ "(shrunk)") ~machines ~jobs:(rebuild_jobs kept) ())
  end

let drop_machine inst i =
  let m = Instance.m inst in
  if m < 2 then None
  else begin
    let machines =
      Array.init (m - 1) (fun k ->
          let mc = Instance.machine inst (if k < i then k else k + 1) in
          Machine.create ~id:k ~speed:mc.Machine.speed ~alpha:mc.Machine.alpha ())
    in
    let kept =
      Array.to_list (Instance.jobs_by_release inst)
      |> List.filter_map (fun (j : Job.t) ->
             let sizes = Array.init (m - 1) (fun k -> j.Job.sizes.(if k < i then k else k + 1)) in
             if Array.exists Float.is_finite sizes then
               Some
                 (Job.create ~id:0 ~release:j.Job.release ~weight:j.Job.weight
                    ?deadline:j.Job.deadline ~sizes ())
             else None)
    in
    if kept = [] then None
    else
      Some
        (Instance.create ~name:(inst.Instance.name ^ "(shrunk)") ~machines
           ~jobs:(rebuild_jobs kept) ())
  end

let shrink ~max_evals entry prop inst0 detail0 =
  let evals = ref 0 in
  let still_fails cand =
    if !evals >= max_evals then None
    else begin
      incr evals;
      match property_fails entry prop cand with Some d -> Some (cand, d) | None -> None
    end
  in
  let rec go cur detail =
    let n = Instance.n cur and m = Instance.m cur in
    let candidates =
      (if n > 1 then [ drop_job_range cur 0 (n / 2); drop_job_range cur (n / 2) n ] else [])
      @ (if n > 1 && n <= 48 then List.init n (fun k -> drop_job_range cur k (k + 1)) else [])
      @ (if m > 1 then List.init m (fun i -> drop_machine cur i) else [])
    in
    let next =
      List.find_map
        (fun cand -> match cand with None -> None | Some c -> still_fails c)
        candidates
    in
    match next with Some (c, d) -> go c d | None -> (cur, detail)
  in
  (* A candidate that stops failing is never accepted, so the result is
     guaranteed to still fail [prop]. *)
  go inst0 detail0

(* ------------------------------------------------------------------ *)
(* The generation loop. *)

(* Fixed so that reports are independent of the pool width. *)
let generation_size = 16

let run ?(progress = fun _ -> ()) ?registry ~pool cfg =
  let seen = ref SSet.empty in
  let coverage = ref SSet.empty in
  let queue = Queue.create () in
  let push s =
    let l = Scenario.label s in
    if not (SSet.mem l !seen) then begin
      seen := SSet.add l !seen;
      Queue.push s queue
    end
  in
  List.iter push (Scenario.base ~seed:cfg.seed);
  let evaluated = ref 0 in
  let raw_failures = ref [] in
  let generation = ref 0 in
  while (not (Queue.is_empty queue)) && !evaluated < cfg.budget do
    incr generation;
    let batch = ref [] in
    while (not (Queue.is_empty queue)) && List.length !batch < min generation_size (cfg.budget - !evaluated) do
      batch := Queue.pop queue :: !batch
    done;
    let batch = Array.of_list (List.rev !batch) in
    let results = Sched_stats.Pool.parallel_map pool (evaluate cfg.policies) batch in
    Array.iteri
      (fun k result ->
        let scenario = batch.(k) in
        incr evaluated;
        (match registry with
        | Some reg -> List.iter (fun vs -> Check_obs.record reg vs) result.e_audits
        | None -> ());
        let novel =
          List.fold_left
            (fun novel key ->
              if SSet.mem key !coverage then novel
              else begin
                coverage := SSet.add key !coverage;
                true
              end)
            false result.e_cov
        in
        if novel then List.iter push (Scenario.mutants scenario);
        List.iter
          (fun f ->
            if List.length !raw_failures < cfg.max_failures then
              raw_failures := (scenario, f) :: !raw_failures)
          result.e_findings)
      results;
    progress
      (Printf.sprintf "generation %d: evaluated %d/%d, coverage %d, failures %d" !generation
         !evaluated cfg.budget (SSet.cardinal !coverage) (List.length !raw_failures))
  done;
  let failures =
    List.rev_map
      (fun (scenario, f) ->
        (* A failure to even build the instance leaves nothing to shrink;
           stand in a trivial one-job instance so the report stays total. *)
        let placeholder () =
          Instance.create ~name:"unbuildable"
            ~machines:[| Machine.create ~id:0 () |]
            ~jobs:[ Job.create ~id:0 ~release:0. ~sizes:[| 1. |] () ]
            ()
        in
        let shrunk, detail, forensics =
          match Scenario.instance scenario with
          | exception _ -> (placeholder (), f.f_detail, "")
          | _ when f.f_prop = "generate" -> (placeholder (), f.f_detail, "")
          | inst -> (
              match List.find_opt (fun (e : P.entry) -> e.P.name = f.f_policy) cfg.policies with
              | None -> (inst, f.f_detail, "")
              | Some entry ->
                  let shrunk, detail =
                    shrink ~max_evals:cfg.max_shrink entry f.f_prop inst f.f_detail
                  in
                  (shrunk, detail, capture_forensics entry shrunk))
        in
        { scenario; policy = f.f_policy; prop = f.f_prop; detail; shrunk; forensics })
      !raw_failures
  in
  { evaluated = !evaluated; coverage = SSet.cardinal !coverage; failures }

let report_to_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "fuzz: %d scenarios evaluated, %d coverage points, %d failures\n" r.evaluated
       r.coverage (List.length r.failures));
  List.iteri
    (fun k f ->
      Buffer.add_string buf
        (Printf.sprintf "failure %d: policy %s violates %s on %s (shrunk to n=%d m=%d)\n  %s\n" k
           f.policy f.prop (Scenario.label f.scenario) (Instance.n f.shrunk) (Instance.m f.shrunk)
           f.detail))
    r.failures;
  Buffer.contents buf
