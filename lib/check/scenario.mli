(** Points in instance space for the scenario fuzzer.

    A scenario is a small, serializable coordinate — family, seed, size —
    that expands deterministically into an {!Sched_model.Instance.t}.  The
    fuzzer walks this space: it starts from {!base}, and whenever a run
    exhibits novel behaviour it enqueues {!mutants} of the scenario that
    produced it (coverage-guided search).

    Families cover the generator suite (uniform, Pareto, bimodal,
    restricted assignment, related, clustered, diurnal), the weighted and
    deadline energy workloads, plus two adversarial corners the suite never
    produces: [ties] (everything released at once with identical sizes, so
    every policy decision is a tie-break) and [adversary] (the Lemma 1
    lower-bound construction). *)

type t = { family : string; seed : int; n : int; m : int }

val instance : t -> Sched_model.Instance.t
(** Deterministic expansion; equal scenarios yield identical instances.
    Raises [Invalid_argument] on an unknown family. *)

val label : t -> string
(** ["family/s<seed>/n<n>/m<m>"] — stable across runs, used in reports and
    coverage keys. *)

val base : seed:int -> t list
(** The initial worklist: every family at a few sizes, with per-scenario
    seeds derived deterministically from [seed]. *)

val mutants : t -> t list
(** Neighbouring scenarios (reseeded, halved/doubled job count, one
    machine more/fewer), enqueued when [t]'s evaluation covered something
    new.  Deterministic, bounded sizes. *)
