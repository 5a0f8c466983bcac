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


let running_on fs i =
  let slot = Flat_state.run_job fs i in
  if slot < 0 then None
  else
    Some
      {
        job = Flat_state.offer fs slot;
        started = Flat_state.run_started fs i;
        rate = Flat_state.run_rate fs i;
        finish = Flat_state.run_finish fs i;
      }

(* Inlined, so a policy's per-machine scan adds the result unboxed; a
   call would box it, two words per machine per arrival. *)
let[@inline] remaining_time fs i =
  if Flat_state.run_job fs i < 0 then 0.
  else
    let r = Flat_state.run_finish fs i -. Flat_state.clock fs in
    if r > 0. then r else 0.

let pending fs i =
  let acc = ref [] in
  Flat_state.pend_iter fs i ~f:(fun id -> acc := Flat_state.job fs id :: !acc);
  List.rev !acc

let pending_iter fs i f = Flat_state.pend_iter fs i ~f:(fun id -> f (Flat_state.job fs id))
let pending_count fs i = Flat_state.pend_count fs i
let[@rejlint.hot] pending_head_size fs i = Flat_state.pend_head fs i
let pending_work fs i = Flat_state.pend_work fs i
let pending_weight fs i = Flat_state.pend_weight fs i
let head fs slot = if slot < 0 then None else Some (Flat_state.offer fs slot)
let pending_shortest fs i = head fs (Flat_state.head_spt fs i)
let pending_longest fs i = head fs (Flat_state.index_max fs i)
let pending_densest fs i = head fs (Flat_state.head_density fs i)
let pending_longest_tie_id fs i = head fs (Flat_state.head_size_id fs i)
let pending_earliest fs i = head fs (Flat_state.head_fifo fs i)

type split = Flat_state.split = private {
  mutable work_before : float;
  mutable count_after : float;
}

let[@rejlint.hot] slot fs (j : Job.t) =
  let s = Flat_state.slot_of fs j.Job.id in
  if s < 0 then
    (invalid_arg (Printf.sprintf "Driver: job %d is not in flight" j.Job.id) [@rejlint.cold]);
  s

let[@rejlint.hot] pending_split fs i (j : Job.t) = Flat_state.pend_split fs i ~job:(slot fs j)

type live_metrics = Metrics.live = {
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

(* Telemetry, read out of the flat state when a session closes: its
   accumulators already count every event, so nothing runs per event.
   Counters add the run's counts (a shared registry accumulates across
   runs); gauges are set from the queues left behind. *)
let publish obs fs ~minor_words =
  let reg = Sched_obs.Obs.registry obs in
  let count name help v =
    Sched_obs.Metric.Counter.add (Sched_obs.Registry.counter reg ~help name) (float_of_int v)
  in
  let gauge name help i v =
    Sched_obs.Metric.Gauge.set
      (Sched_obs.Registry.gauge reg ~help ~labels:[ ("machine", string_of_int i) ] name)
      (float_of_int v)
  in
  let in_system = ref 0 in
  for i = 0 to Flat_state.m fs - 1 do
    let pending = Flat_state.pend_count fs i in
    let inflight = pending + if Flat_state.run_job fs i >= 0 then 1 else 0 in
    in_system := !in_system + inflight;
    gauge "sched_pending_jobs" "Dispatched and released, not yet started" i pending;
    gauge "sched_inflight_jobs" "Dispatched, not yet completed or rejected" i inflight
  done;
  (* Every dispatched job is completed, rejected or still in the system. *)
  count "sched_dispatch_total" "Jobs dispatched to a machine"
    (Flat_state.completed fs + Flat_state.rejected fs + !in_system);
  count "sched_start_total" "Job executions started" (Flat_state.starts fs);
  count "sched_complete_total" "Jobs completed" (Flat_state.completed fs);
  count "sched_reject_total" "Jobs rejected" (Flat_state.rejected fs);
  count "sched_reject_midrun_total" "Rejections that interrupted a running job"
    (Flat_state.mid_run fs);
  count "sched_restart_total" "Running jobs killed and requeued" (Flat_state.restarts fs);
  (* The allocations-per-event instrument: minor words allocated across
     the event loop (policy allocations included — the driver itself
     contributes none in steady state) over events processed.  Close
     runs the queue dry, so pushes = pops. *)
  Sched_obs.Metric.Counter.add
    (Sched_obs.Registry.counter reg ~help:"Minor-heap words allocated inside the flat event loop"
       "sched_flat_loop_minor_words_total")
    minor_words;
  count "sched_flat_loop_events_total" "Events processed by the flat event loop"
    (Flat_state.events_pushed fs)

(* The per-event handlers, closed over one simulation's state.  Every
   mutation happens in canonical event order on the calling domain, and
   each event writes exactly one row into the session's row sink. *)
let make_handlers ?rows fs policy pstate =
  let m = Flat_state.m fs in
  (* [@rejlint.hot]: RJL103 statically proves these four loop bodies
     build no structures; the failure arms that do allocate are
     individually marked [@rejlint.cold]. *)
  (* The handlers index the flat state by slot; the policy names jobs by
     external id, resolved once per decision, and every recorder row
     carries the external id.  An id no slot holds reads as settled. *)
  let[@rejlint.hot] loc_of slot =
    if slot < 0 then Flat_state.loc_settled else Flat_state.loc fs slot
  in
  let[@rejlint.hot] reject_job id =
    let t = Flat_state.clock fs in
    let slot = Flat_state.slot_of fs id in
    let l = loc_of slot in
    if Flat_state.loc_is_pending l then begin
      let i = Flat_state.loc_machine l in
      if not (Flat_state.pend_remove fs i slot) then
        (invalid_arg (Printf.sprintf "Driver: job %d not pending" id) [@rejlint.cold]);
      Flat_state.outcome_rejected fs ~job:slot ~machine:i ~time:t ~was_running:false;
      Flat_state.account_rejection fs slot t ~was_running:false;
      (match rows with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_reject rc ~job:id ~machine:i ~was_running:false
              ~rejected:(Flat_state.rejected fs) in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- Flat_state.size fs ~machine:i ~job:slot;
          rc.Rec.floats.(s + Rec.o_budget) <- Flat_state.rej_weight fs);
      Flat_state.settle fs slot;
      i
    end
    else if Flat_state.loc_is_running l then begin
      let i = Flat_state.loc_machine l in
      let started = Flat_state.run_started fs i
      and rate = Flat_state.run_rate fs i
      and fin = Flat_state.run_finish fs i in
      Flat_state.clear_running fs i;
      Flat_state.bump_epoch fs i;
      let was_running = Time.gt t started in
      if was_running then
        Flat_state.lay_segment fs ~job:slot ~machine:i ~start:started ~stop:t ~speed:rate;
      let remaining = (fin -. t) *. rate in
      let remaining = if remaining > 0. then remaining else 0. in
      Flat_state.outcome_rejected fs ~job:slot ~machine:i ~time:t ~was_running;
      Flat_state.account_rejection fs slot t ~was_running;
      (match rows with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_reject rc ~job:id ~machine:i ~was_running
              ~rejected:(Flat_state.rejected fs) in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- remaining;
          rc.Rec.floats.(s + Rec.o_budget) <- Flat_state.rej_weight fs);
      Flat_state.settle fs slot;
      i
    end
    else if l = Flat_state.loc_unreleased then
      (invalid_arg (Printf.sprintf "Driver: rejecting unreleased job %d" id) [@rejlint.cold])
    else
      (invalid_arg (Printf.sprintf "Driver: rejecting settled or unknown job %d" id)
      [@rejlint.cold])
  in
  (* Kill a running job and return it (full size again) to the pending
     queue; its partial segment is kept for the wasted-work record. *)
  let[@rejlint.hot] restart_job id =
    let t = Flat_state.clock fs in
    let slot = Flat_state.slot_of fs id in
    let l = loc_of slot in
    if Flat_state.loc_is_running l then begin
      let i = Flat_state.loc_machine l in
      let started = Flat_state.run_started fs i and rate = Flat_state.run_rate fs i in
      Flat_state.clear_running fs i;
      Flat_state.bump_epoch fs i;
      if Time.gt t started then
        Flat_state.lay_segment fs ~job:slot ~machine:i ~start:started ~stop:t ~speed:rate;
      let wasted = (t -. started) *. rate in
      let wasted = if wasted > 0. then wasted else 0. in
      Flat_state.account_restart fs;
      (match rows with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_restart rc ~job:id ~machine:i in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- wasted);
      Flat_state.pend_add fs i slot;
      Flat_state.set_loc fs slot (Flat_state.loc_pending ~machine:i);
      i
    end
    else (invalid_arg (Printf.sprintf "Driver: restarting job %d that is not running" id)
         [@rejlint.cold])
  in
  let[@rejlint.hot] try_start i =
    if Flat_state.run_job fs i < 0 && Flat_state.pend_count fs i > 0 then begin
      match policy.select pstate fs i with
      | None -> ()
      | Some { job; speed } ->
          if speed <= 0. || not (Float.is_finite speed) then
            (invalid_arg (Printf.sprintf "Driver: policy %s chose speed %g" policy.name speed)
            [@rejlint.cold]);
          let slot = Flat_state.slot_of fs job in
          let l = loc_of slot in
          if not (Flat_state.loc_is_pending l && Flat_state.loc_machine l = i) then
            (invalid_arg (Printf.sprintf "Driver: job %d is not pending on machine %d" job i)
            [@rejlint.cold]);
          if not (Flat_state.pend_remove fs i slot) then
            (invalid_arg (Printf.sprintf "Driver: job %d not pending" job) [@rejlint.cold]);
          let rate = speed *. Flat_state.mach_speed fs i in
          let size = Flat_state.size fs ~machine:i ~job:slot in
          if not (Float.is_finite size) then
            (invalid_arg (Printf.sprintf "Driver: starting job %d on ineligible machine %d" job i)
            [@rejlint.cold]);
          let clock = Flat_state.clock fs in
          let finish = clock +. (size /. rate) in
          Flat_state.set_running fs i ~job:slot ~started:clock ~rate ~finish;
          Flat_state.set_loc fs slot (Flat_state.loc_running ~machine:i);
          (match rows with
          | None -> ()
          | Some rc ->
              let s = Rec.reserve_start rc ~job ~machine:i in
              rc.Rec.floats.(s + Rec.o_time) <- clock;
              rc.Rec.floats.(s + Rec.o_value) <- rate;
              rc.Rec.floats.(s + Rec.o_score) <- size);
          Flat_state.push_finish fs ~machine:i ~time:finish
    end
  in
  let[@rejlint.hot] commit_arrival slot (j : Job.t) decision =
    let id = j.Job.id in
    let i = decision.dispatch_to in
    if i < 0 || i >= m then
      (invalid_arg
         (Printf.sprintf "Driver: policy %s dispatched to machine %d" policy.name i)
      [@rejlint.cold]);
    if not (Flat_state.eligible fs ~machine:i ~job:slot) then
      (invalid_arg
         (Printf.sprintf "Driver: policy %s dispatched job %d to ineligible machine %d"
            policy.name id i) [@rejlint.cold]);
    (* Decision provenance: the candidate machine set behind the
       dispatch, as a count and an eligibility bitmask, both summarized
       when the job was created. *)
    (match rows with
    | None -> ()
    | Some rc ->
        let s =
          Rec.reserve_dispatch rc ~job:id ~machine:i ~cands:j.Job.eligible_count
            ~mask:j.Job.eligible_mask
        in
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
    Flat_state.pend_add fs i slot;
    Flat_state.set_loc fs slot (Flat_state.loc_pending ~machine:i);
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
    let slot = Flat_state.run_job fs i in
    if slot >= 0 && Flat_state.epoch fs i = epoch then begin
      let started = Flat_state.run_started fs i
      and rate = Flat_state.run_rate fs i
      and fin = Flat_state.run_finish fs i in
      Flat_state.clear_running fs i;
      Flat_state.lay_segment fs ~job:slot ~machine:i ~start:started ~stop:fin ~speed:rate;
      Flat_state.outcome_completed fs ~job:slot ~machine:i ~start:started ~speed:rate ~finish:fin;
      Flat_state.account_completion fs slot fin;
      (match rows with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_complete rc ~job:(Flat_state.ext fs slot) ~machine:i in
          rc.Rec.floats.(s + Rec.o_time) <- Flat_state.clock fs;
          rc.Rec.floats.(s + Rec.o_value) <- fin -. Flat_state.release fs slot);
      Flat_state.settle fs slot;
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
  ss_rows : Rec.t option;  (** the one row sink: [?recorder], or the trace's ring *)
  ss_obs : Sched_obs.Obs.t option;
  ss_commit_arrival : int -> Job.t -> decision -> unit;
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

(* Everything marshaled into a checkpoint.  Handlers and the policy's
   closures are rebuilt at thaw; what is marshaled is plain data — the
   pending heaps hold ids only and take their order per call — so the
   payload carries no code pointers and restores in any build of the
   same source.  Nothing in the payload names its own layout: the
   container's version ([Snapshot.version]) is the guard, bumped
   whenever this record or a type it reaches changes shape. *)
type 'a frozen = {
  z_fs : Flat_state.t;
  z_pstate : 'a;
  z_hwm : float;
  z_last_rel : float;
  z_last_id : int;
  z_nfed : int;
  z_fed : Job.t list;
  z_trace : Trace.t option;  (** only the rows the reader has not released *)
  z_recorder : Rec.t option;  (** a [?recorder] sink; [None] when the trace is the sink *)
  z_minor : float;
  z_batch : Instance.t option;
  z_name : string;
  z_iname : string;
}

(* Wraps a state [fs] and policy state [pstate] in a session record, with
   the per-event handlers wired to them and to its one row sink. *)
let session_of ?trace ?obs ?recorder ~hwm ~last_rel ~last_id ~nfed ~fed ~minor ~batch
    ~name fs policy pstate =
  let rows =
    match (trace, recorder) with
    | Some t, Some rc when Trace.recorder t != rc ->
        invalid_arg "Driver.Session: ?trace and ?recorder must be the same ring"
    | Some t, _ -> Some (Trace.recorder t)
    | None, rc -> rc
  in
  let commit_arrival, commit_finish = make_handlers ?rows fs policy pstate in
  {
    ss_policy = policy;
    ss_pstate = pstate;
    ss_fs = fs;
    ss_trace = trace;
    ss_rows = rows;
    ss_obs = obs;
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

let session_make ?trace ?obs ?recorder ~retire ~batch ~name ~machines policy =
  let fs = Flat_state.of_stream ~machines in
  if retire then Flat_state.set_retire fs true;
  (match batch with
  | Some instance -> Flat_state.reserve fs (Instance.n instance)
  | None -> ());
  let pstate = policy.init (match batch with Some i -> i | None -> Flat_state.instance fs) in
  session_of ?trace ?obs ?recorder ~hwm:neg_infinity ~last_rel:neg_infinity ~last_id:(-1)
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
   runs execute this exact code).  [limit] is boxed once per call,
   never per event. *)
let session_drain s ~limit =
  let fs = s.ss_fs in
  let policy = s.ss_policy and pstate = s.ss_pstate in
  let commit_arrival = s.ss_commit_arrival and commit_finish = s.ss_commit_finish in
  let[@rejlint.hot] rec loop () =
    if Flat_state.next_event_before fs ~limit then begin
      (let now = Flat_state.ev_time fs in
       if now > Flat_state.clock fs then Flat_state.set_clock fs now);
      let tag = Flat_state.ev_tag fs in
      (if Pqueue.Events.Key.is_arrival ~tag then begin
         let slot = Flat_state.ev_payload fs in
         let j = Flat_state.arrive fs slot in
         commit_arrival slot j (policy.on_arrival pstate fs j)
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
  Option.iter (fun o -> publish o fs ~minor_words:s.ss_minor.(0)) s.ss_obs;
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
           gets the same boxed shape batch runs produce.
           [Instance.create] re-validates — dense job ids included. *)
        let machines = (Flat_state.instance fs).Instance.machines in
        Flat_state.set_instance fs
          (Instance.create ~name:s.ss_name ~machines ~jobs:(List.rev s.ss_fed) ()));
    (Some (Flat_state.to_schedule fs), s.ss_pstate, live fs)
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
      z_trace = Option.map Trace.unread s.ss_trace;
      z_recorder = (if Option.is_none s.ss_trace then s.ss_rows else None);
      z_minor = s.ss_minor.(0);
      z_batch = s.ss_batch;
      z_name = s.ss_policy.name;
      z_iname = s.ss_name;
    }
    []

let session_thaw ?obs policy payload =
  let z =
    try (Marshal.from_string payload 0 : _ frozen)
    with Failure msg -> invalid_arg ("Driver.Session: unreadable snapshot payload: " ^ msg)
  in
  if not (String.equal z.z_name policy.name) then
    invalid_arg
      (Printf.sprintf "Driver.Session: snapshot was taken under policy %s, not %s" z.z_name
         policy.name);
  session_of ?trace:z.z_trace ?obs ?recorder:z.z_recorder ~hwm:z.z_hwm
    ~last_rel:z.z_last_rel ~last_id:z.z_last_id ~nfed:z.z_nfed ~fed:z.z_fed ~minor:z.z_minor
    ~batch:z.z_batch ~name:z.z_iname z.z_fs policy z.z_pstate

module Session = struct
  type 'a t = 'a session

  let open_session ?trace ?obs ?recorder ?(retire = false) ?(name = "stream") ~machines
      policy =
    session_make ?trace ?obs ?recorder ~retire ~batch:None ~name ~machines policy

  let feed = session_feed
  let drain_until = session_drain_until
  let next_key s = Flat_state.next_key s.ss_fs
  let fed s = s.ss_nfed
  let view s = s.ss_fs
  let live_metrics s = live s.ss_fs
  let trace s = s.ss_trace
  let close = session_close
  let freeze = session_freeze
  let thaw = session_thaw
end

let run ?trace ?obs ?recorder policy instance =
  let s =
    session_make ?trace ?obs ?recorder ~retire:false ~batch:(Some instance)
      ~name:instance.Instance.name ~machines:instance.Instance.machines policy
  in
  let jobs = Instance.jobs_by_release instance in
  for k = 0 to Array.length jobs - 1 do
    session_feed s jobs.(k)
  done;
  match session_close s with
  | Some schedule, pstate, lm -> (schedule, pstate, lm)
  | None, _, _ -> assert false
