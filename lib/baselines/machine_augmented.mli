(** Machine-augmentation baseline (Phillips, Stein, Torng, Wein): give the
    online algorithm [factor] copies of every machine instead of rejection
    or speed.  The classical results need [m log P] machines for O(1)
    competitiveness; here the baseline quantifies how much hardware a
    non-rejecting greedy needs to match the rejection algorithm's
    flow-time. *)

open Sched_model

val augment : factor:int -> Instance.t -> Instance.t
(** The instance on [factor] copies of every machine: machine [i] of the
    result copies machine [i mod m], and so does every job's size there.
    Jobs, releases and weights are unchanged, so flow metrics of a
    schedule on it compare directly with the original's.  Raises
    [Invalid_argument] unless [factor >= 1]. *)
