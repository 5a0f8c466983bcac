(** Synthetic instance generation.

    A generator config fixes the arrival process, the base-size and weight
    distributions, the machine shape and (optionally) a deadline model;
    [instance] then deterministically expands a seed into an
    {!Sched_model.Instance.t}. *)

open Sched_model
open Sched_stats

type arrivals =
  | Poisson of float
      (** Rate per unit time; inter-arrival times are exponential. *)
  | Batched of { every : float; size : int }
      (** [size] jobs released together every [every] time units. *)
  | Bursty of { rate : float; burst_every : float; burst_size : int }
      (** Poisson background plus periodic bursts — the paper's Lemma 1
          stress pattern in benign form. *)
  | Diurnal of { base_rate : float; amplitude : float; period : float }
      (** Non-homogeneous Poisson with sinusoidal intensity
          [base_rate (1 + amplitude sin(2 pi t / period))], sampled by
          thinning ([0 <= amplitude <= 1]): the day/night load cycle of a
          shared cluster. *)
  | All_at_zero  (** Everything released at time 0 (offline-like). *)

type deadlines =
  | No_deadlines
  | Laxity of Dist.t
      (** [d_j = r_j + laxity * min_i p_ij] with laxity drawn per job
          (values must be > 1 for feasibility headroom). *)
  | Slot_laxity of { min_slots : int; max_slots : int }
      (** Integer-aligned spans for the discrete-time Section 4 model:
          releases are floored to integers and
          [d_j = floor(r_j) + U{min_slots..max_slots}] slots, with the span
          forced to be at least [ceil(min_i p_ij)] slots so speed-1
          execution is feasible. *)

type t = {
  name : string;
  n : int;
  m : int;
  arrivals : arrivals;
  sizes : Dist.t;
  weights : Dist.t option;  (** [None] = unit weights. *)
  shape : Shape.t;
  deadlines : deadlines;
  alpha : float;  (** Machine power exponent (speed-scaling models). *)
}

val make :
  ?name:string ->
  ?arrivals:arrivals ->
  ?sizes:Dist.t ->
  ?weights:Dist.t ->
  ?shape:Shape.t ->
  ?deadlines:deadlines ->
  ?alpha:float ->
  n:int ->
  m:int ->
  unit ->
  t
(** Defaults: Poisson arrivals at 80% of fleet capacity (given the size
    distribution's mean, falling back to rate [0.8 * m]), sizes
    [uniform 1..10], unit weights, identical machines, no deadlines,
    [alpha = 3]. *)

val jobs : t -> seed:int -> Job.t Seq.t
(** The seed's jobs, ids [0..n-1], in release order: every arrival kind
    releases in nondecreasing order, so id order is [(release, id)]
    order.  Each job is drawn when the sequence reaches it, into one
    refilled size vector that {!Sched_model.Job.create} copies, so a
    consumer that drops settled jobs holds only the jobs it keeps.
    Ephemeral: traverse it once (the draws share mutable generator
    state; forcing the whole sequence again from its head restarts
    them). *)

val fleet : t -> Machine.t array
(** The [m] machines, unit speed, power exponent [alpha]. *)

val label : t -> seed:int -> string
(** The name {!instance} gives the seed's instance. *)

val instance : t -> seed:int -> Instance.t
(** {!jobs} collected over {!fleet}, named {!label}: deterministic,
    equal seeds yield identical instances. *)
