open Sched_model
module Rec = Sched_obs.Recorder

type running = { job : Job.t; started : Time.t; rate : float; finish : Time.t }

(* ------------------------------------------------------------------ *)
(* The driver runs one event loop over [Flat_state]'s struct-of-arrays
   representation, so the steady state allocates nothing on the minor
   heap.  Its schedules, traces, recorder rings and live metrics are
   pinned byte-for-byte by the corpus x policy goldens
   (test/golden/golden.expected). *)

(* The read-only window a policy looks through. *)
type view = Flat_state.t

let now fs = Flat_state.clock fs

let running_on fs i =
  let id = Flat_state.run_job fs i in
  if id < 0 then None
  else
    Some
      {
        job = Flat_state.job fs id;
        started = Flat_state.run_started fs i;
        rate = Flat_state.run_rate fs i;
        finish = Flat_state.run_finish fs i;
      }

let remaining_volume fs i =
  if Flat_state.run_job fs i < 0 then 0.
  else
    Float.max 0.
      ((Flat_state.run_finish fs i -. Flat_state.clock fs) *. Flat_state.run_rate fs i)

let remaining_time fs i =
  if Flat_state.run_job fs i < 0 then 0.
  else Float.max 0. (Flat_state.run_finish fs i -. Flat_state.clock fs)

let pending fs i =
  let acc = ref [] in
  Flat_state.pend_iter fs i ~f:(fun id -> acc := Flat_state.job fs id :: !acc);
  List.rev !acc

let pending_iter fs i f = Flat_state.pend_iter fs i ~f:(fun id -> f (Flat_state.job fs id))
let pending_count fs i = Flat_state.pend_count fs i
let pending_work fs i = Flat_state.pend_work fs i
let pending_weight fs i = Flat_state.pend_weight fs i
let head fs id = if id < 0 then None else Some (Flat_state.job fs id)
let pending_shortest fs i = head fs (Flat_state.head_spt fs i)
let pending_longest fs i = head fs (Flat_state.head_spt_rev fs i)
let pending_densest fs i = head fs (Flat_state.head_density fs i)
let pending_longest_tie_id fs i = head fs (Flat_state.head_size_id fs i)
let pending_earliest fs i = head fs (Flat_state.head_fifo fs i)

type live_metrics = {
  flow : Metrics.flow;
  energy : float;
  rejection : Metrics.rejection;
  makespan : Time.t;
}

let live fs =
  let completed = Flat_state.completed fs and flow = Flat_state.flow fs in
  let wflow = Flat_state.wflow fs and rejected = Flat_state.rejected fs in
  let rej_weight = Flat_state.rej_weight fs in
  let n = Flat_state.n fs and total_weight = Flat_state.total_weight fs in
  {
    flow =
      {
        Metrics.total = flow;
        weighted = wflow;
        total_with_rejected = flow +. Flat_state.rej_flow fs;
        weighted_with_rejected = wflow +. Flat_state.rej_wflow fs;
        max_flow = Flat_state.max_flow fs;
        mean_flow = (if completed = 0 then 0. else flow /. float_of_int completed);
        max_stretch = Flat_state.max_stretch fs;
      };
    energy = Flat_state.energy fs;
    rejection =
      {
        Metrics.count = rejected;
        fraction = (if n = 0 then 0. else float_of_int rejected /. float_of_int n);
        weight = rej_weight;
        weight_fraction = (if total_weight = 0. then 0. else rej_weight /. total_weight);
        mid_run = Flat_state.mid_run fs;
      };
    makespan = Flat_state.makespan fs;
  }

type decision = { dispatch_to : Machine.id; reject : Job.id list; restart : Job.id list }

let dispatch i = { dispatch_to = i; reject = []; restart = [] }

type start = { job : Job.id; speed : float }

type 'a policy = {
  name : string;
  init : Instance.t -> 'a;
  on_arrival : 'a -> view -> Job.t -> decision;
  select : 'a -> view -> Machine.id -> start option;
}

(* Kernighan popcount: when [m <= 62] no candidate-mask bit is shared,
   so the candidate count is the mask's popcount and the second
   eligibility scan is skipped; the saturated bit-62 case falls back to
   [Flat_state.cand_count]. *)
let[@rejlint.hot] rec popcount x acc =
  if x = 0 then acc else popcount (x land (x - 1)) (acc + 1)

(* ------------------------------------------------------------------ *)
(* Telemetry.  When a [Sched_obs.Obs.t] handle is supplied, the driver
   mirrors every trace-worthy event into counters and per-machine gauges
   and times its phases through the handle's sink.  Everything here is
   strictly observational: no value computed below ever flows back into a
   decision, so schedules are byte-identical with telemetry on or off. *)

(* Pre-resolved instrument cells: the hot path pays one mutable-field
   write per event, never a registry lookup. *)
type instr = {
  i_sink : Sched_obs.Sink.t;
  c_dispatch : Sched_obs.Metric.Counter.t;
  c_start : Sched_obs.Metric.Counter.t;
  c_complete : Sched_obs.Metric.Counter.t;
  c_reject : Sched_obs.Metric.Counter.t;
  c_reject_midrun : Sched_obs.Metric.Counter.t;
  c_restart : Sched_obs.Metric.Counter.t;
  g_pending : Sched_obs.Metric.Gauge.t array;
  g_inflight : Sched_obs.Metric.Gauge.t array;
}

let phase_on_arrival = "on_arrival"
let phase_select = "select"
let phase_segment = "segment"
let phase_heap = "heap"

let make_instr obs m =
  let reg = Sched_obs.Obs.registry obs in
  let machine_gauge name help =
    Array.init m (fun i ->
        Sched_obs.Registry.gauge reg ~help ~labels:[ ("machine", string_of_int i) ] name)
  in
  {
    i_sink = Sched_obs.Obs.sink obs;
    c_dispatch =
      Sched_obs.Registry.counter reg ~help:"Jobs dispatched to a machine" "sched_dispatch_total";
    c_start = Sched_obs.Registry.counter reg ~help:"Job executions started" "sched_start_total";
    c_complete = Sched_obs.Registry.counter reg ~help:"Jobs completed" "sched_complete_total";
    c_reject = Sched_obs.Registry.counter reg ~help:"Jobs rejected" "sched_reject_total";
    c_reject_midrun =
      Sched_obs.Registry.counter reg ~help:"Rejections that interrupted a running job"
        "sched_reject_midrun_total";
    c_restart =
      Sched_obs.Registry.counter reg ~help:"Running jobs killed and requeued"
        "sched_restart_total";
    g_pending = machine_gauge "sched_pending_jobs" "Dispatched and released, not yet started";
    g_inflight =
      machine_gauge "sched_inflight_jobs" "Dispatched, not yet completed or rejected";
  }

(* Post-run oracle audit for [?check].  The oracle re-derives every
   invariant from scratch (independent of [Schedule.validate] and of the
   incremental accumulators), so a pass here really is a second opinion. *)
let audit ?obs ?recorder ~name ~saw_restart lm schedule =
  let snap =
    {
      Sched_check.Oracle.flow = lm.flow;
      energy = lm.energy;
      rejection = lm.rejection;
      makespan = lm.makespan;
    }
  in
  let mode = Sched_check.Oracle.mode ~allow_restarts:saw_restart () in
  let vs = Sched_check.Oracle.check ~mode ~live:snap schedule in
  (match obs with
  | Some o -> Sched_check.Check_obs.record (Sched_obs.Obs.registry o) vs
  | None -> ());
  (* With a flight recorder attached, a violation carries its forensics:
     the last recorded decisions, as trace/2 NDJSON, appended to the
     oracle's message. *)
  match recorder with
  | None -> Sched_check.Oracle.assert_clean ~what:name vs
  | Some rc -> (
      try Sched_check.Oracle.assert_clean ~what:name vs
      with Sched_check.Oracle.Violations (what, vs) ->
        raise
          (Sched_check.Oracle.Violations
             ( what ^ "\n-- flight recorder tail --\n"
               ^ Trace_export.recorder_to_ndjson ~last:32 rc,
               vs )))

let c_flat_minor_words_name = "sched_flat_loop_minor_words_total"
let c_flat_events_name = "sched_flat_loop_events_total"

(* The per-event handlers, closed over one simulation's state.  Every
   mutation happens in canonical event order on the calling domain. *)
let make_handlers ?trace ?recorder ~instr fs policy pstate =
  let m = Flat_state.m fs in
  let lay_segment ~job ~machine ~start ~stop ~speed =
    match instr with
    | None -> Flat_state.lay_segment fs ~job ~machine ~start ~stop ~speed
    | Some ins ->
        Sched_obs.Sink.time ins.i_sink phase_segment (fun () ->
            Flat_state.lay_segment fs ~job ~machine ~start ~stop ~speed)
  in
  (* [@rejlint.hot]: RJL103 statically proves these four loop bodies
     build no structures; the trace/instrumentation/failure arms that do
     allocate are individually marked [@rejlint.cold] (off in the
     steady state the dynamic minor-words ceiling measures). *)
  let[@rejlint.hot] reject_job id =
    let t = Flat_state.clock fs in
    let l = Flat_state.loc fs id in
    if Flat_state.loc_is_pending l then begin
      let i = Flat_state.loc_machine l in
      if not (Flat_state.pend_remove fs i id) then
        (invalid_arg (Printf.sprintf "Driver: job %d not pending" id) [@rejlint.cold]);
      Flat_state.set_loc fs id Flat_state.loc_settled;
      (match trace with
      | None -> ()
      | Some tr ->
          (Trace.record tr t
             (Trace.Reject
                {
                  job = id;
                  machine = i;
                  was_running = false;
                  remaining = Flat_state.size fs ~machine:i ~job:id;
                }) [@rejlint.cold]));
      (match instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_reject;
          Sched_obs.Metric.Gauge.dec ins.g_pending.(i);
          Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
      Flat_state.outcome_rejected fs ~job:id ~machine:i ~time:t ~was_running:false;
      Flat_state.account_rejection fs id t ~was_running:false;
      (match recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_reject rc ~job:id ~machine:i ~was_running:false
              ~rejected:(Flat_state.rejected fs) in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- Flat_state.size fs ~machine:i ~job:id;
          rc.Rec.floats.(s + Rec.o_budget) <- Flat_state.rej_weight fs);
      i
    end
    else if Flat_state.loc_is_running l then begin
      let i = Flat_state.loc_machine l in
      let started = Flat_state.run_started fs i
      and rate = Flat_state.run_rate fs i
      and fin = Flat_state.run_finish fs i in
      Flat_state.clear_running fs i;
      Flat_state.bump_epoch fs i;
      Flat_state.set_loc fs id Flat_state.loc_settled;
      let was_running = Time.gt t started in
      if was_running then
        lay_segment ~job:id ~machine:i ~start:started ~stop:t ~speed:rate;
      let remaining = Float.max 0. ((fin -. t) *. rate) in
      (match trace with
      | None -> ()
      | Some tr ->
          (Trace.record tr t (Trace.Reject { job = id; machine = i; was_running; remaining })
          [@rejlint.cold]));
      (match instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_reject;
          if was_running then Sched_obs.Metric.Counter.inc ins.c_reject_midrun;
          Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
      Flat_state.outcome_rejected fs ~job:id ~machine:i ~time:t ~was_running;
      Flat_state.account_rejection fs id t ~was_running;
      (match recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_reject rc ~job:id ~machine:i ~was_running
              ~rejected:(Flat_state.rejected fs) in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- remaining;
          rc.Rec.floats.(s + Rec.o_budget) <- Flat_state.rej_weight fs);
      i
    end
    else if l = Flat_state.loc_unreleased then
      (invalid_arg (Printf.sprintf "Driver: rejecting unreleased job %d" id) [@rejlint.cold])
    else (invalid_arg (Printf.sprintf "Driver: rejecting settled job %d" id) [@rejlint.cold])
  in
  (* Kill a running job and return it (full size again) to the pending
     queue; its partial segment is kept for the wasted-work record. *)
  let[@rejlint.hot] restart_job id =
    let t = Flat_state.clock fs in
    let l = Flat_state.loc fs id in
    if Flat_state.loc_is_running l then begin
      let i = Flat_state.loc_machine l in
      let started = Flat_state.run_started fs i and rate = Flat_state.run_rate fs i in
      Flat_state.clear_running fs i;
      Flat_state.bump_epoch fs i;
      if Time.gt t started then lay_segment ~job:id ~machine:i ~start:started ~stop:t ~speed:rate;
      let wasted = Float.max 0. ((t -. started) *. rate) in
      Flat_state.set_saw_restart fs;
      (match trace with
      | None -> ()
      | Some tr ->
          (Trace.record tr t (Trace.Restart { job = id; machine = i; wasted }) [@rejlint.cold]));
      (match recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_restart rc ~job:id ~machine:i in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- wasted);
      (match instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_restart;
          Sched_obs.Metric.Gauge.inc ins.g_pending.(i));
      Flat_state.pend_add fs i id;
      Flat_state.set_loc fs id (Flat_state.loc_pending ~machine:i);
      i
    end
    else (invalid_arg (Printf.sprintf "Driver: restarting job %d that is not running" id)
         [@rejlint.cold])
  in
  let[@rejlint.hot] try_start i =
    if Flat_state.run_job fs i < 0 && Flat_state.pend_count fs i > 0 then begin
      let choice =
        match instr with
        | None -> policy.select pstate fs i
        | Some ins ->
            (Sched_obs.Sink.time ins.i_sink phase_select (fun () -> policy.select pstate fs i)
            [@rejlint.cold])
      in
      match choice with
      | None -> ()
      | Some { job; speed } ->
          if speed <= 0. || not (Float.is_finite speed) then
            (invalid_arg (Printf.sprintf "Driver: policy %s chose speed %g" policy.name speed)
            [@rejlint.cold]);
          let l = Flat_state.loc fs job in
          if not (Flat_state.loc_is_pending l && Flat_state.loc_machine l = i) then
            (invalid_arg (Printf.sprintf "Driver: job %d is not pending on machine %d" job i)
            [@rejlint.cold]);
          if not (Flat_state.pend_remove fs i job) then
            (invalid_arg (Printf.sprintf "Driver: job %d not pending" job) [@rejlint.cold]);
          let rate = speed *. Flat_state.mach_speed fs i in
          let size = Flat_state.size fs ~machine:i ~job in
          if not (Float.is_finite size) then
            (invalid_arg (Printf.sprintf "Driver: starting job %d on ineligible machine %d" job i)
            [@rejlint.cold]);
          let clock = Flat_state.clock fs in
          let finish = clock +. (size /. rate) in
          Flat_state.set_running fs i ~job ~started:clock ~rate ~finish;
          Flat_state.set_loc fs job (Flat_state.loc_running ~machine:i);
          (match trace with
          | None -> ()
          | Some tr ->
              (Trace.record tr clock (Trace.Start { job; machine = i; speed = rate })
              [@rejlint.cold]));
          (match recorder with
          | None -> ()
          | Some rc ->
              let s = Rec.reserve_start rc ~job ~machine:i in
              rc.Rec.floats.(s + Rec.o_time) <- clock;
              rc.Rec.floats.(s + Rec.o_value) <- rate;
              rc.Rec.floats.(s + Rec.o_score) <- size);
          (match instr with
          | None -> ()
          | Some ins ->
              Sched_obs.Metric.Counter.inc ins.c_start;
              Sched_obs.Metric.Gauge.dec ins.g_pending.(i));
          Flat_state.push_finish fs ~machine:i ~time:finish
    end
  in
  let[@rejlint.hot] commit_arrival (j : Job.t) decision =
    let id = j.Job.id in
    let i = decision.dispatch_to in
    if i < 0 || i >= m then
      (invalid_arg
         (Printf.sprintf "Driver: policy %s dispatched to machine %d" policy.name i)
      [@rejlint.cold]);
    if not (Flat_state.eligible fs ~machine:i ~job:id) then
      (invalid_arg
         (Printf.sprintf "Driver: policy %s dispatched job %d to ineligible machine %d"
            policy.name id i) [@rejlint.cold]);
    (* Decision provenance for the flight recorder: the candidate machine
       set behind the dispatch, as a count and an eligibility bitmask. *)
    (match recorder with
    | None -> ()
    | Some rc ->
        let mask = Flat_state.cand_mask fs ~job:id in
        let cands = if m <= 62 then popcount mask 0 else Flat_state.cand_count fs ~job:id in
        let s = Rec.reserve_dispatch rc ~job:id ~machine:i ~cands ~mask in
        let work = Flat_state.pend_work fs i in
        let rem =
          if Flat_state.run_job fs i < 0 then 0.
          else begin
            let r =
              (Flat_state.run_finish fs i -. Flat_state.clock fs) *. Flat_state.run_rate fs i
            in
            if r > 0. then r else 0.
          end
        in
        rc.Rec.floats.(s + Rec.o_time) <- Flat_state.clock fs;
        rc.Rec.floats.(s + Rec.o_value) <- work;
        rc.Rec.floats.(s + Rec.o_score) <- work +. rem);
    Flat_state.pend_add fs i id;
    Flat_state.set_loc fs id (Flat_state.loc_pending ~machine:i);
    (match trace with
    | None -> ()
    | Some tr ->
        (Trace.record tr (Flat_state.clock fs) (Trace.Dispatch { job = id; machine = i })
        [@rejlint.cold]));
    (match instr with
    | None -> ()
    | Some ins ->
        Sched_obs.Metric.Counter.inc ins.c_dispatch;
        Sched_obs.Metric.Gauge.inc ins.g_pending.(i);
        Sched_obs.Metric.Gauge.inc ins.g_inflight.(i));
    (* The scrutinee avoids pairing the two lists up: a tuple pattern
       match would compile allocation-free anyway, but the static proof
       is structural and cannot assume that optimization. *)
    match decision.reject with
    | [] when decision.restart = [] ->
        (* [sort_uniq [i] = [i]]: the common no-rejection case skips the
           list plumbing but starts exactly the same machine. *)
        try_start i
    | _ ->
        (* Rejection path: list plumbing is O(#rejections), not
           O(#events), so it may allocate. *)
        ((let touched = List.map reject_job decision.reject in
          let touched = touched @ List.map restart_job decision.restart in
          List.iter try_start (List.sort_uniq Int.compare (i :: touched)))
        [@rejlint.cold])
  in
  let[@rejlint.hot] commit_finish i epoch =
    let id = Flat_state.run_job fs i in
    if id >= 0 && Flat_state.epoch fs i = epoch then begin
      let started = Flat_state.run_started fs i
      and rate = Flat_state.run_rate fs i
      and fin = Flat_state.run_finish fs i in
      Flat_state.clear_running fs i;
      lay_segment ~job:id ~machine:i ~start:started ~stop:fin ~speed:rate;
      Flat_state.outcome_completed fs ~job:id ~machine:i ~start:started ~speed:rate ~finish:fin;
      Flat_state.account_completion fs id fin;
      Flat_state.set_loc fs id Flat_state.loc_settled;
      (match trace with
      | None -> ()
      | Some tr ->
          (Trace.record tr (Flat_state.clock fs) (Trace.Complete { job = id; machine = i })
          [@rejlint.cold]));
      (match recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_complete rc ~job:id ~machine:i in
          rc.Rec.floats.(s + Rec.o_time) <- Flat_state.clock fs;
          rc.Rec.floats.(s + Rec.o_value) <- fin -. Flat_state.release fs id);
      (match instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_complete;
          Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
      try_start i
    end
    (* else: stale event, the job was rejected mid-run. *)
  in
  (commit_arrival, commit_finish)

(* ------------------------------------------------------------------ *)
(* The incremental session: the one engine.  [run] below is a thin
   wrapper — open, feed every job, close — so the batch path is literally
   a replay of the session path.

   Why streaming is byte-identical to batch: arrival tags carry a high
   kind bit ([Pqueue.Events.Key.arrival_bit]), so cross-kind ordering at
   equal keys never consults the sequence number; within a kind, the
   relative tag order matches the batch run's (arrivals are fed in
   [(release, id)] order, enforced by [feed], and completions are
   scheduled in identical pop order, inductively).  The feed contract — a
   job's arrival must enter the queue before any drain passes its
   release, enforced by the drained-horizon check — is therefore exactly
   the condition under which the pop sequence, and hence schedule, trace,
   recorder ring and live metrics, coincide with the uninterrupted batch
   run's, byte for byte. *)

type 'a session = {
  ss_policy : 'a policy;
  ss_pstate : 'a;
  ss_fs : Flat_state.t;
  ss_trace : Trace.t option;
  ss_recorder : Rec.t option;
  ss_obs : Sched_obs.Obs.t option;
  ss_instr : instr option;
  ss_check : bool;
  ss_commit_arrival : Job.t -> decision -> unit;
  ss_commit_finish : int -> int -> unit;
  (* Float cells live in one-slot arrays so updates never box. *)
  ss_hwm : float array;  (** drained horizon: no event key below it remains *)
  ss_last_rel : float array;  (** release of the last fed job *)
  mutable ss_last_id : int;
  mutable ss_nfed : int;
  mutable ss_fed : Job.t list;
      (** Reverse feed order, for materializing the closing schedule's
          instance — empty in retire mode, which never materializes:
          retaining the job boxes would put an O(n) floor under the
          rolling-retirement memory bound the bench gates. *)
  mutable ss_closed : bool;
  ss_minor : float array;  (** minor words across all drains *)
  ss_batch : Instance.t option;
  ss_name : string;  (** name the materialized instance carries *)
}

(* Everything marshaled into a checkpoint.  Handlers, instruments and the
   policy's closures are rebuilt at thaw; [Marshal.Closures] covers the
   heap comparators inside [Flat_state.t] (closures over the very column
   arrays the state owns — sharing is preserved within the one marshal
   call) and pins the snapshot to the producing executable, which is the
   contract anyway (the container's version/checksum reject everything
   else first). *)
type 'a frozen = {
  z_fs : Flat_state.t;
  z_pstate : 'a;
  z_hwm : float;
  z_last_rel : float;
  z_last_id : int;
  z_nfed : int;
  z_fed : Job.t list;
  z_trace : Trace.t option;
  z_recorder : Rec.t option;
  z_check : bool;
  z_minor : float;
  z_batch : Instance.t option;
  z_name : string;
  z_iname : string;
}

(* Wraps a state [fs] and policy state [pstate] in a session record, with
   the per-event handlers and instruments wired to them. *)
let session_of ?trace ?obs ?recorder ~check ~hwm ~last_rel ~last_id ~nfed ~fed ~minor ~batch
    ~name fs policy pstate =
  let instr = match obs with None -> None | Some o -> Some (make_instr o (Flat_state.m fs)) in
  let commit_arrival, commit_finish = make_handlers ?trace ?recorder ~instr fs policy pstate in
  {
    ss_policy = policy;
    ss_pstate = pstate;
    ss_fs = fs;
    ss_trace = trace;
    ss_recorder = recorder;
    ss_obs = obs;
    ss_instr = instr;
    ss_check = check;
    ss_commit_arrival = commit_arrival;
    ss_commit_finish = commit_finish;
    ss_hwm = [| hwm |];
    ss_last_rel = [| last_rel |];
    ss_last_id = last_id;
    ss_nfed = nfed;
    ss_fed = fed;
    ss_closed = false;
    ss_minor = [| minor |];
    ss_batch = batch;
    ss_name = name;
  }

let session_make ?trace ?obs ?recorder ~check ~retire ~batch ~name ~machines policy =
  if check && retire then
    invalid_arg "Driver.Session: cannot oracle-audit (check) a session that retires segments";
  let fs = Flat_state.of_stream ~machines in
  if retire then Flat_state.set_retire fs true;
  (match batch with
  | Some instance -> Flat_state.reserve fs (Instance.n instance)
  | None -> ());
  let pstate = policy.init (match batch with Some i -> i | None -> Flat_state.instance fs) in
  session_of ?trace ?obs ?recorder ~check ~hwm:neg_infinity ~last_rel:neg_infinity ~last_id:(-1)
    ~nfed:0 ~fed:[] ~minor:0. ~batch ~name fs policy pstate

let session_feed s (j : Job.t) =
  if s.ss_closed then invalid_arg "Driver.Session: feed on a closed session";
  let r = j.Job.release in
  if Float.is_nan r || r < s.ss_hwm.(0) then
    invalid_arg
      (Printf.sprintf "Driver.Session: job %d released at %g behind the drained horizon %g"
         j.Job.id r s.ss_hwm.(0));
  if r < s.ss_last_rel.(0) || (r = s.ss_last_rel.(0) && j.Job.id <= s.ss_last_id) then
    invalid_arg
      (Printf.sprintf
         "Driver.Session: job %d at %g breaks the strictly increasing (release, id) feed order"
         j.Job.id r);
  Flat_state.add_job s.ss_fs j;
  s.ss_last_rel.(0) <- r;
  s.ss_last_id <- j.Job.id;
  s.ss_nfed <- s.ss_nfed + 1;
  if not (Flat_state.retire s.ss_fs) then s.ss_fed <- j :: s.ss_fed

(* One bounded drain: the event loop, except the pop refuses events
   beyond [limit] ([~limit:infinity] at close runs the queue dry, so batch
   runs execute this exact code).  [limit] is boxed once per call —
   captured by the [pop] closure — never per event. *)
let session_drain s ~limit =
  let fs = s.ss_fs in
  let policy = s.ss_policy and pstate = s.ss_pstate in
  let commit_arrival = s.ss_commit_arrival and commit_finish = s.ss_commit_finish in
  let instr = s.ss_instr in
  let pop =
    match instr with
    | None -> fun () -> Flat_state.next_event_before fs ~limit
    | Some ins ->
        fun () ->
          Sched_obs.Sink.time ins.i_sink phase_heap (fun () ->
              Flat_state.next_event_before fs ~limit)
  in
  let[@rejlint.hot] rec loop () =
    if pop () then begin
      Flat_state.set_clock fs (Float.max (Flat_state.clock fs) (Flat_state.ev_time fs));
      let tag = Flat_state.ev_tag fs in
      (if Pqueue.Events.Key.is_arrival ~tag then begin
         let id = Flat_state.ev_payload fs in
         let j = Flat_state.job fs id in
         let decision =
           match instr with
           | None -> policy.on_arrival pstate fs j
           | Some ins ->
               (Sched_obs.Sink.time ins.i_sink phase_on_arrival (fun () ->
                    policy.on_arrival pstate fs j) [@rejlint.cold])
         in
         commit_arrival j decision
       end
       else begin
         let payload = Flat_state.ev_payload fs in
         commit_finish
           (Pqueue.Events.Key.machine_of ~payload)
           (Pqueue.Events.Key.epoch_of ~payload)
       end);
      loop ()
    end
  in
  let w0 = Gc.minor_words () in
  loop ();
  let w1 = Gc.minor_words () in
  s.ss_minor.(0) <- s.ss_minor.(0) +. (w1 -. w0)

let session_drain_until s horizon =
  if s.ss_closed then invalid_arg "Driver.Session: drain_until on a closed session";
  if Float.is_nan horizon then invalid_arg "Driver.Session: drain_until NaN";
  session_drain s ~limit:horizon;
  if horizon > s.ss_hwm.(0) then s.ss_hwm.(0) <- horizon

let session_close s =
  if s.ss_closed then invalid_arg "Driver.Session: close on a closed session";
  session_drain s ~limit:infinity;
  s.ss_closed <- true;
  let fs = s.ss_fs in
  (match s.ss_obs with
  | None -> ()
  | Some o ->
      (* The allocations-per-event instrument: minor words allocated across
         the event loop (policy allocations included — the driver itself
         contributes none in steady state) over events processed.  Close
         runs the queue dry, so pushes = pops. *)
      let reg = Sched_obs.Obs.registry o in
      let cw =
        Sched_obs.Registry.counter reg
          ~help:"Minor-heap words allocated inside the flat event loop" c_flat_minor_words_name
      in
      let ce =
        Sched_obs.Registry.counter reg ~help:"Events processed by the flat event loop"
          c_flat_events_name
      in
      Sched_obs.Metric.Counter.add cw s.ss_minor.(0);
      Sched_obs.Metric.Counter.add ce (float_of_int (Flat_state.events_pushed fs)));
  for i = 0 to Flat_state.m fs - 1 do
    if Flat_state.pend_count fs i > 0 || Flat_state.run_job fs i >= 0 then
      invalid_arg
        (Printf.sprintf "Driver: policy %s left work unfinished on machine %d" s.ss_policy.name
           i)
  done;
  if Flat_state.retire fs then (None, s.ss_pstate, live fs)
  else begin
    (match s.ss_batch with
    | Some instance -> Flat_state.set_instance fs instance
    | None ->
        (* Materialize the fed stream as a real instance so the schedule
           (and the oracle) get the same boxed shape batch runs produce.
           [Instance.create] re-validates — dense job ids included. *)
        let machines = (Flat_state.instance fs).Instance.machines in
        Flat_state.set_instance fs
          (Instance.create ~name:s.ss_name ~machines ~jobs:(List.rev s.ss_fed) ()));
    let schedule = Flat_state.to_schedule fs in
    let lm = live fs in
    if s.ss_check then
      audit ?obs:s.ss_obs ?recorder:s.ss_recorder ~name:s.ss_policy.name
        ~saw_restart:(Flat_state.saw_restart fs) lm schedule;
    (Some schedule, s.ss_pstate, lm)
  end

let session_freeze s =
  if s.ss_closed then invalid_arg "Driver.Session: freeze on a closed session";
  Marshal.to_string
    {
      z_fs = s.ss_fs;
      z_pstate = s.ss_pstate;
      z_hwm = s.ss_hwm.(0);
      z_last_rel = s.ss_last_rel.(0);
      z_last_id = s.ss_last_id;
      z_nfed = s.ss_nfed;
      z_fed = s.ss_fed;
      z_trace = s.ss_trace;
      z_recorder = s.ss_recorder;
      z_check = s.ss_check;
      z_minor = s.ss_minor.(0);
      z_batch = s.ss_batch;
      z_name = s.ss_policy.name;
      z_iname = s.ss_name;
    }
    [ Marshal.Closures ]

let session_thaw ?obs policy payload =
  let z =
    try (Marshal.from_string payload 0 : _ frozen)
    with Failure msg -> invalid_arg ("Driver.Session: unreadable snapshot payload: " ^ msg)
  in
  if not (String.equal z.z_name policy.name) then
    invalid_arg
      (Printf.sprintf "Driver.Session: snapshot was taken under policy %s, not %s" z.z_name
         policy.name);
  session_of ?trace:z.z_trace ?obs ?recorder:z.z_recorder ~check:z.z_check ~hwm:z.z_hwm
    ~last_rel:z.z_last_rel ~last_id:z.z_last_id ~nfed:z.z_nfed ~fed:z.z_fed ~minor:z.z_minor
    ~batch:z.z_batch ~name:z.z_iname z.z_fs policy z.z_pstate

module Session = struct
  type 'a t = 'a session

  let open_session ?trace ?obs ?recorder ?(check = false) ?(retire = false) ?(name = "stream")
      ~machines policy =
    session_make ?trace ?obs ?recorder ~check ~retire ~batch:None ~name ~machines policy

  let feed = session_feed
  let drain_until = session_drain_until
  let next_key s = Flat_state.next_key s.ss_fs
  let drained s = s.ss_hwm.(0)
  let fed s = s.ss_nfed
  let view s = s.ss_fs
  let policy_state s = s.ss_pstate
  let live_metrics s = live s.ss_fs
  let trace s = s.ss_trace
  let close = session_close
  let freeze = session_freeze
  let thaw = session_thaw
end

let run ?trace ?obs ?recorder ?(check = false) policy instance =
  let s =
    session_make ?trace ?obs ?recorder ~check ~retire:false ~batch:(Some instance)
      ~name:instance.Instance.name ~machines:instance.Instance.machines policy
  in
  let jobs = Instance.jobs_by_release instance in
  for k = 0 to Array.length jobs - 1 do
    session_feed s jobs.(k)
  done;
  match session_close s with
  | Some schedule, pstate, lm -> (schedule, pstate, lm)
  | None, _, _ -> assert false
