(** Machine-relatedness models.

    A shape turns a job's base size into its vector of per-machine sizes
    [p_ij], covering the classical machine environments: identical machines,
    uniformly related machines, fully unrelated machines, restricted
    assignment and cluster affinity. *)

open Sched_stats

type t

val name : t -> string

val sizes : t -> Rng.t -> base:float -> m:int -> float array
(** [sizes shape rng ~base ~m] draws the size vector of one job with base
    size [base] on [m] machines.  Entries are positive; [infinity] marks an
    ineligible machine (at least one entry is always finite). *)

val fill : t -> Rng.t -> base:float -> float array -> unit
(** [fill shape rng ~base v] overwrites [v] with what [sizes shape rng
    ~base ~m:(Array.length v)] would return, making the same draws, so a
    generator can reuse one vector for every job ([Job.create]
    copies it). *)

val identical : t
(** [p_ij = base] everywhere. *)

val related : speeds:float array -> t
(** [p_ij = base / speeds.(i)]; speeds must be positive.  When the job count
    of machines differs from [Array.length speeds], speeds are cycled. *)

val unrelated : spread:float -> t
(** [p_ij = base * U[1/spread, spread]] independently per machine
    ([spread >= 1]): the general unrelated model. *)

val restricted : eligible_prob:float -> t
(** Each machine is eligible independently with probability
    [eligible_prob]; eligible machines have [p_ij = base], others
    [infinity].  At least one machine is forced eligible. *)

val clustered : clusters:int -> penalty:float -> t
(** Machines are split into [clusters] contiguous groups; each job prefers
    one uniformly random group ([p_ij = base]) and pays [penalty * base]
    elsewhere ([penalty >= 1]): data-locality affinity. *)
