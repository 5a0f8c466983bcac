(** Named standard workloads shared by experiments, examples and benches.

    Each function returns a generator configuration; expand with
    {!Gen.instance}. *)

open Sched_stats

val flow_uniform : n:int -> m:int -> Gen.t
(** Poisson arrivals, uniform sizes 1..10, identical machines: the benign
    baseline workload. *)

val flow_pareto : n:int -> m:int -> Gen.t
(** Heavy-tailed (bounded Pareto, tail 1.5, 1..100) sizes on unrelated
    machines — the datacenter-like stress workload. *)

val flow_bimodal : n:int -> m:int -> Gen.t
(** Mice-and-elephants batched arrivals: the pattern behind the paper's
    Lemma 1 (long jobs blocking short ones). *)

val flow_restricted : n:int -> m:int -> Gen.t
(** Restricted assignment (each job eligible on ~half the machines). *)

val flow_related : n:int -> m:int -> Gen.t
(** Uniformly related machines, speeds 1..4. *)

val flow_clustered : n:int -> m:int -> Gen.t
(** Cluster-affinity unrelated model. *)

val flow_diurnal : n:int -> m:int -> Gen.t
(** Sinusoidal (day/night) arrival intensity with unrelated machines; not
    part of {!all_flow} so existing experiment tables stay stable. *)

val flow_menu : (string * (n:int -> m:int -> Gen.t)) list
(** The six flow workloads above by their CLI names ([uniform],
    [pareto], [bimodal], [restricted], [related], [clustered]), in a
    fixed order. *)

val all_flow : n:int -> m:int -> Gen.t list
(** {!flow_menu}'s workloads, in its order. *)

val weighted_energy : n:int -> m:int -> alpha:float -> Gen.t
(** Weighted jobs (Pareto weights), moderate load — the Section 3
    (flow + energy) workload. *)

val deadline_energy : n:int -> m:int -> alpha:float -> Gen.t
(** Integer-aligned spans for the Section 4 discrete-time energy model. *)

val tiny : seed:int -> n:int -> m:int -> Sched_model.Instance.t
(** A small uniform instance for brute-force comparisons and tests. *)

val default_seeds : int list
(** The seeds experiments average over. *)

val dist_menu : (string * Dist.t) list
(** Named size distributions for CLI selection. *)
