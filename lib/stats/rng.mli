(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    SplitMix64 (Steele, Lea & Flood 2014): a tiny, high-quality, splittable
    generator whose output is identical on every platform, unlike
    [Stdlib.Random] whose algorithm may change between compiler releases. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed. *)

val split : t -> t
(** [split t] derives an independent generator stream from [t], advancing
    [t].  Used to give each machine/job/experiment arm its own stream so that
    changing the number of draws in one arm does not perturb the others. *)

(* rejlint: allow test-only-export — tests replay a generator's stream with it *)
val copy : t -> t
(** [copy t] duplicates the current state (same future draws). *)

val float : t -> float
(** [float t] draws uniformly in [[0,1)]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] draws uniformly in [[lo,hi)].  Requires
    [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] draws uniformly in [[0, n-1]].  Requires [n > 0]. *)

val exponential : t -> float -> float
(** [exponential t rate] draws from Exp(rate).  Requires [rate > 0]. *)
