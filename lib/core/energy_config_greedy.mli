(** The paper's Theorem 3 algorithm: online non-preemptive energy
    minimization with deadlines, via the primal-dual approach on a
    configuration LP.

    Following the paper's Section 4, time is discretized into unit slots and
    a {e strategy} for job [j] is a triple (machine, start slot, constant
    speed) whose execution window fits in [[r_j, d_j]].  At each release the
    algorithm picks the strategy minimizing the marginal energy increase

    [sum_{t in window} (P_i(u_it + v) - P_i(u_it))]

    where [u_it] is the current aggregate speed of machine [i] in slot [t];
    jobs may overlap on a machine (speeds add).  Started jobs are never
    modified.

    We enumerate strategies by integer duration [dur in 1 .. d_j - r_j]
    with speed [v = p_ij / dur]: this is the full discrete-time strategy
    set (any discrete speed grid induces a subset of these durations), see
    DESIGN.md.

    Theorem 3: for power functions [P_i(s) = s^alpha_i] the greedy is
    [alpha^alpha]-competitive with [alpha = max_i alpha_i]. *)

open Sched_model

type assignment = {
  job : Job.id;
  machine : Machine.id;
  start_slot : int;
  duration : int;  (** In slots. *)
  speed : float;  (** [p_ij / duration]. *)
  marginal : float;  (** Energy increase this assignment caused. *)
}

type result = {
  schedule : Schedule.t;  (** Valid with [~allow_parallel:true]. *)
  assignments : assignment list;  (** In release order. *)
  energy : float;  (** Final total energy, [sum_i sum_t (u_it)^alpha_i]. *)
}

val run : ?speeds:float array -> ?powers:Sched_energy.Power.t array -> Instance.t -> result
(** Requires every job to carry a deadline, with integer-aligned release
    and deadline and a span of at least one slot; raises [Invalid_argument]
    otherwise.

    [speeds] restricts the strategy set to the discrete speed grid [V] of
    the paper's formulation: only the execution durations [ceil(p_ij / v)]
    for [v in V] are considered (each still runs at the exact speed
    [p_ij / dur], i.e. the largest speed at most [v] that ends on a slot
    boundary).  When a window is too tight for every grid speed the
    fastest feasible execution is used instead.  Default: all integer
    durations (the grid-free refinement).

    [powers] overrides each machine's power function (default
    [s^alpha_i]).  Theorem 3 requires only [(lambda, mu)]-smoothness, not
    convexity, so step functions or static-power models
    ({!Sched_energy.Power}) are legal here — the greedy minimizes marginal
    energy under whatever function is supplied. *)

(** {1 Continuous single-machine variant}

    Used against the adaptive lower-bound adversary of Lemma 2, whose job
    spans are not slot-aligned.  The strategy set is discretized on a
    per-job grid: [grid] candidate start times crossed with [grid]
    candidate durations spanning the feasible window. *)

type continuous

val continuous : ?grid:int -> alpha:float -> unit -> continuous
(** Fresh single-machine state with power [s^alpha]; [grid] defaults to
    48. *)

val continuous_place : continuous -> release:float -> deadline:float -> volume:float -> float * float
(** Greedily commits the job and returns [(start, speed)]. *)

(* rejlint: allow test-only-export — only its own test calls it (ROADMAP item 5) *)
val continuous_energy : continuous -> float
(** Total energy of the speed profile committed so far. *)
