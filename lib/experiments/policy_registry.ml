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
    ?recorder:Sched_obs.Recorder.t -> ?check:bool -> Instance.t -> Schedule.t * Driver.live_metrics;
  open_stream :
    ?trace:Trace.t ->
    ?obs:Sched_obs.Obs.t ->
    ?recorder:Sched_obs.Recorder.t ->
    ?check:bool ->
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

let pack ?reference ?budget ?(allow_restarts = false) make_policy name =
  {
    name;
    allow_restarts;
    run =
      (fun ?recorder ?check instance ->
        let s, _, live = Driver.run ?recorder ?check (make_policy ()) instance in
        (s, live));
    open_stream =
      (fun ?trace ?obs ?recorder ?check ?retire ?name ~machines () ->
        wrap_session
          (Driver.Session.open_session ?trace ?obs ?recorder ?check ?retire ?name ~machines
             (make_policy ())));
    restore_stream =
      (fun ?obs payload -> wrap_session (Driver.Session.thaw ?obs (make_policy ()) payload));
    reference =
      Option.map
        (fun mk instance ->
          let s, _, _ = Driver.run (mk ()) instance in
          s)
        reference;
    budget;
  }

(* A fixed eps for registry/differential purposes; the experiments sweep
   their own values. *)
let eps = 0.3

let no_rejection = Sched_check.Oracle.Count_fraction 0.

let all =
  [
    pack
      (fun () -> FR.policy (FR.config ~eps ()))
      ~reference:(fun () -> B.Seed_reference.flow_reject (FR.config ~eps ()))
      ~budget:(Sched_check.Oracle.Count_fraction (2. *. eps))
      "flow-reject";
    pack
      (fun () ->
        FR.policy (FR.config ~dispatch:FR.Greedy_load ~eps ()))
      ~reference:(fun () ->
        B.Seed_reference.flow_reject (FR.config ~dispatch:FR.Greedy_load ~eps ()))
      ~budget:(Sched_check.Oracle.Count_fraction (2. *. eps))
      "flow-reject-greedy";
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
  ]

let find name = List.find_opt (fun e -> e.name = name) all