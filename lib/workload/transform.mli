(** Instance transformations.

    Besides their utility for building experiment variants, these enable
    {e metamorphic} testing of the whole stack: the model, driver and all
    policies are exactly scale-invariant, so e.g. [scale_time c] must scale
    every flow-time by [c] — an end-to-end invariant the test suite
    checks. *)

open Sched_model

val scale_time : float -> Instance.t -> Instance.t
(** Multiply releases, sizes and deadlines by [c > 0]: a pure change of
    time unit.  Flow-times of any scale-invariant policy scale by exactly
    [c]. *)

(* rejlint: allow test-only-export — the metamorphic suite's release-shift transform *)
val shift_releases : float -> Instance.t -> Instance.t
(** Add [delta >= 0] to every release (and deadline). *)

val permute_jobs : Sched_stats.Rng.t -> Instance.t -> Instance.t
(** Shuffle the presentation order of the job list fed to
    {!Instance.create}.  Ids, releases and sizes are untouched and the
    instance re-sorts by release internally, so the result must be
    observationally identical — every policy has to produce a
    byte-identical schedule on it (a metamorphic identity the fuzzer
    checks). *)

val relabel_machines : perm:int array -> Instance.t -> Instance.t
(** Rename machine [i] to [perm.(i)] (a permutation of [0..m-1]), carrying
    speeds, alphas and each job's size column along.  The relabeled
    instance describes the same scheduling problem up to machine identity;
    note policies may legitimately break argmin ties by machine id, so
    runs on the relabeled instance are equivalent in metrics, not
    byte-identical. *)
