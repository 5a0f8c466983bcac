(** The restart relaxation: instead of rejecting jobs, {e kill and requeue}
    them, losing the work done so far.

    The paper's conclusion calls for exploring "other realistic relaxations"
    beyond rejection and resource augmentation; restarts are the classic
    candidate (no job is ever dropped, but processed work can be wasted).
    This policy mirrors the Theorem 1 algorithm's structure: greedy
    dispatch, SPT service, and — in place of Rejection Rule 1 — a {b restart
    rule}: when the running job's remaining time exceeds [kill_factor]
    times the newly arrived job's size, the running job is killed and
    requeued (at most [max_restarts] times per job, after which it is
    immune).

    Schedules validate with [~allow_restarts:true]; {!wasted_work} reports
    the price paid. *)

open Sched_model
open Sched_sim

type config = {
  kill_factor : float;  (** Kill when [remaining > kill_factor * p_new]. *)
  max_restarts : int;  (** Per-job immunity threshold (ensures progress). *)
}

val config : ?kill_factor:float -> ?max_restarts:int -> unit -> config
(** Defaults: [kill_factor = 4.], [max_restarts = 2]. *)

type state

val policy : config -> state Driver.policy
val restarts : state -> int

val wasted_work : Schedule.t -> float
(** Total volume of aborted attempts (work done and thrown away). *)
