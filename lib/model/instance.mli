(** Problem instances: a machine fleet plus a job set.

    Jobs are stored sorted by release time (the order in which an online
    algorithm sees them) and job ids are required to be exactly
    [0 .. n-1] so that per-job state can live in arrays. *)

type t = private {
  name : string;
  machines : Machine.t array;
  jobs : Job.t array;  (** Sorted by [Job.compare_by_release]. *)
  by_id : Job.t array;  (** The same jobs, indexed by id. *)
}

val create : ?name:string -> machines:Machine.t array -> jobs:Job.t list -> unit -> t
(** Validates: at least one machine, machine ids are [0..m-1], every job's
    size vector has length [m], and job ids form [0..n-1] (ids need not be
    ordered by release).  Jobs are sorted by release internally. *)

val n : t -> int
(** Number of jobs. *)

val m : t -> int
(** Number of machines. *)

val job : t -> Job.id -> Job.t
(** Lookup by job id (not by position in release order), O(1).  Raises
    [Invalid_argument] on an id outside [0..n-1]. *)

val machine : t -> Machine.id -> Machine.t
val jobs_by_release : t -> Job.t array
val total_weight : t -> float

val total_min_volume : t -> float
(** [sum_j min_i p_ij] — the volume lower bound on any schedule's total
    flow-time. *)

val has_deadlines : t -> bool
(** True when every job carries a deadline (energy-minimization
    instances). *)

val horizon : t -> Time.t
(** A safe upper bound on any reasonable schedule's completion: latest
    release (or deadline) plus total minimum volume. *)

val pp_stats : Format.formatter -> t -> unit
