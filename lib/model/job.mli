(** Jobs.

    A job carries a release time, a weight, an optional deadline (only used
    by the energy-minimization problem of the paper's Section 4) and a vector
    of machine-dependent sizes [p_ij] — processing *time* in the flow-time
    problem, processing *volume* in the speed-scaling problems.  A size of
    [infinity] encodes a forbidden machine (restricted assignment). *)

type id = int

type t = private {
  id : id;
  release : Time.t;
  weight : float;
  sizes : float array;  (** [sizes.(i)] is [p_ij] on machine [i]. *)
  deadline : Time.t option;
  best_machine : int;
      (** The leftmost machine of minimum size: [sizes.(best_machine)] is
          [min_i p_ij], finite by construction. *)
  eligible_count : int;  (** Number of machines with a finite size. *)
  eligible_mask : int;
      (** Eligibility bitmask: bit [k] for machine [k] up to 61; machines
          beyond that saturate into bit 62. *)
}
(** The last three fields summarize [sizes].  {!create} computes them
    while it validates the copied vector, so reading them costs O(1) and
    no code rescans a job's sizes for them.  Every vector costs one pass:
    two compares and a minimum test per size up to its first infinite or
    bad size (an all-finite vector's count and mask follow from its
    length), and the full count-and-mask test per size from there on. *)

val create :
  id:id -> release:Time.t -> ?weight:float -> ?deadline:Time.t -> sizes:float array -> unit -> t
(** Builds a job, validating: non-negative finite release, positive
    weight, every size positive (possibly [infinity]) with at least one
    finite entry, and when a deadline is given, [deadline > release].
    [weight] defaults to [1.].  The job holds its own copy of [sizes], so
    a caller may refill and reuse the array it passed. *)

val size : t -> int -> float
(** [size j i] is [p_ij]. *)

val eligible : t -> int -> bool
(** [eligible j i] holds when [size j i] is finite. *)

val min_size : t -> float
(** Minimum size over machines (finite by construction):
    [sizes.(best_machine)], O(1). *)

val with_sizes : t -> float array -> t
(** Copy with replaced (re-validated, re-summarized) size vector. *)

val compare_by_release : t -> t -> int
(** Orders by release time, tie-broken by id. *)

val pp : Format.formatter -> t -> unit
