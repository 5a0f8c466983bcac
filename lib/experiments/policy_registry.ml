open Sched_model
open Sched_sim
module FR = Rejection.Flow_reject
module FRW = Rejection.Flow_reject_weighted
module FER = Rejection.Flow_energy_reject
module B = Sched_baselines

(* A live streaming session with the policy-state type hidden: the
   registry's callers (serve, the differential suites, the fuzzer) are
   policy-generic, so the existential is erased here, once, behind plain
   closures. *)
type stream_session = {
  ss_feed : Job.t -> unit;
  ss_drain_until : Time.t -> unit;
  ss_next_key : unit -> Time.t;
  ss_fed : unit -> int;
  ss_live : unit -> Driver.live_metrics;
  ss_close : unit -> Schedule.t option * Driver.live_metrics;
  ss_freeze : unit -> string;
  ss_trace : unit -> Trace.t option;
}

type entry = {
  name : string;
  allow_restarts : bool;
  run :
    ?obs:Sched_obs.Obs.t ->
    ?recorder:Sched_obs.Recorder.t ->
    Instance.t ->
    Schedule.t * Driver.live_metrics;
  open_stream :
    ?trace:Trace.t ->
    ?obs:Sched_obs.Obs.t ->
    ?recorder:Sched_obs.Recorder.t ->
    ?retire:bool ->
    ?name:string ->
    machines:Machine.t array ->
    unit ->
    stream_session;
  restore_stream : ?obs:Sched_obs.Obs.t -> string -> stream_session;
  reference : (Instance.t -> Schedule.t) option;
  budget : Sched_check.Oracle.budget option;
}

let wrap_session s =
  {
    ss_feed = Driver.Session.feed s;
    ss_drain_until = Driver.Session.drain_until s;
    ss_next_key = (fun () -> Driver.Session.next_key s);
    ss_fed = (fun () -> Driver.Session.fed s);
    ss_live = (fun () -> Driver.Session.live_metrics s);
    ss_close = (fun () -> let sch, _, live = Driver.Session.close s in (sch, live));
    ss_freeze = (fun () -> Driver.Session.freeze s);
    ss_trace = (fun () -> Driver.Session.trace s);
  }

(* The instance as an entry runs it: the same jobs and name on the
   entry's fleet (the instance itself under the identity fleet). *)
let on_fleet fleet (instance : Instance.t) =
  Instance.with_machines instance (fleet instance.Instance.machines)

(* [fleet] is applied here, once, so [run], [open_stream] and
   [reference] see the same machines; a restored session carries its
   fleet in the payload. *)
let pack ?reference ?budget ?(allow_restarts = false) ?(fleet = Fun.id) make_policy name =
  {
    name;
    allow_restarts;
    run =
      (fun ?obs ?recorder instance ->
        let s, _, live = Driver.run ?obs ?recorder (make_policy ()) (on_fleet fleet instance) in
        (s, live));
    open_stream =
      (fun ?trace ?obs ?recorder ?retire ?name ~machines () ->
        wrap_session
          (Driver.Session.open_session ?trace ?obs ?recorder ?retire ?name
             ~machines:(fleet machines) (make_policy ())));
    restore_stream =
      (fun ?obs payload -> wrap_session (Driver.Session.thaw ?obs (make_policy ()) payload));
    reference =
      Option.map
        (fun mk instance ->
          let s, _, _ = Driver.run (mk ()) (on_fleet fleet instance) in
          s)
        reference;
    budget;
  }

(* The [eps] of [all]; the experiments sweep their own values. *)
let eps = 0.3

let no_rejection = Sched_check.Oracle.Count_fraction 0.

(* Every entry at one [eps].  Policies are built when a run starts, so
   an [eps] no policy accepts fails only the entries that read it. *)
let entries ~eps =
  let flow_reject ?dispatch ?rule1 ?rule2 ~budget name =
    let cfg () = FR.config ?dispatch ?rule1 ?rule2 ~eps () in
    pack
      (fun () -> FR.policy (cfg ()))
      ~reference:(fun () -> B.Seed_reference.flow_reject (cfg ()))
      ~budget:(Sched_check.Oracle.Count_fraction budget)
      name
  in
  [
    flow_reject ~budget:(2. *. eps) "flow-reject";
    flow_reject ~dispatch:FR.Greedy_load ~budget:(2. *. eps) "flow-reject-greedy";
    pack
      (fun () -> FRW.policy (FRW.config ~eps ()))
      ~reference:(fun () ->
        B.Seed_reference.flow_reject_weighted (FRW.config ~eps ()))
      ~budget:(Sched_check.Oracle.Weight_fraction (2. *. eps))
      "flow-reject-weighted";
    pack
      (fun () -> FER.policy (FER.config ~eps ()))
      ~reference:(fun () ->
        B.Seed_reference.flow_energy_reject (FER.config ~eps ()))
      ~budget:(Sched_check.Oracle.Weight_fraction eps)
      "flow-energy-reject";
    pack
      (fun () -> B.Greedy_dispatch.fifo)
      ~reference:(fun () -> B.Seed_reference.greedy_fifo)
      ~budget:no_rejection "greedy-fifo";
    pack
      (fun () -> B.Greedy_dispatch.spt)
      ~reference:(fun () -> B.Seed_reference.greedy_spt)
      ~budget:no_rejection "greedy-spt";
    pack
      (fun () -> B.Immediate_reject.policy ~eps B.Immediate_reject.Never)
      ~reference:(fun () ->
        B.Seed_reference.immediate_reject ~eps B.Immediate_reject.Never)
      ~budget:no_rejection "immediate-never";
    pack
      (fun () ->
        B.Immediate_reject.policy ~eps
          (B.Immediate_reject.Largest_over 2.))
      ~reference:(fun () ->
        B.Seed_reference.immediate_reject ~eps
          (B.Immediate_reject.Largest_over 2.))
      "immediate-largest";
    pack
      (fun () ->
        B.Immediate_reject.policy ~eps
          (B.Immediate_reject.Load_threshold 3.))
      ~reference:(fun () ->
        B.Seed_reference.immediate_reject ~eps
          (B.Immediate_reject.Load_threshold 3.))
      "immediate-load";
    pack
      (fun () -> B.Restart_spt.policy (B.Restart_spt.config ()))
      ~reference:(fun () ->
        B.Seed_reference.restart_spt (B.Restart_spt.config ()))
      ~allow_restarts:true ~budget:no_rejection "restart-spt";
    (* One rule alone charges each rejection to ceil(1/eps) dispatches
       (Rule 1) or ceil(1+1/eps) (Rule 2), so eps bounds the fraction. *)
    flow_reject ~rule2:false ~budget:eps "flow-reject-rule1";
    flow_reject ~rule1:false ~budget:eps "flow-reject-rule2";
    (* ESA'16 ([5] in the paper): Rule 1 alone on machines 1.5x as fast. *)
    pack
      (fun () -> B.Speed_augmented.policy ~eps_r:eps)
      ~fleet:(B.Speed_augmented.fleet ~eps_s:0.5)
      ~reference:(fun () -> B.Seed_reference.flow_reject (FR.config ~rule2:false ~eps ()))
      ~budget:(Sched_check.Oracle.Count_fraction eps) "speed-augmented";
  ]

let all = entries ~eps

let aliases =
  [
    ("thm1", "flow-reject");
    ("thm1-rule1", "flow-reject-rule1");
    ("thm1-rule2", "flow-reject-rule2");
    ("fifo", "greedy-fifo");
    ("spt", "greedy-spt");
    ("immediate", "immediate-largest");
    ("esa", "speed-augmented");
  ]

(* Deadlines are not checked: most entries ignore them, and none
   promises to meet them. *)
let audit e schedule live =
  Sched_check.Oracle.check
    ~mode:(Sched_check.Oracle.mode ~allow_restarts:e.allow_restarts ~check_deadlines:false ())
    ?budget:e.budget ~live schedule

let find ?eps:at name =
  let name = Option.value (List.assoc_opt name aliases) ~default:name in
  let table = match at with None -> all | Some eps -> entries ~eps in
  List.find_opt (fun e -> e.name = name) table