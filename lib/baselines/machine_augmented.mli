(** Machine-augmentation baseline (Phillips, Stein, Torng, Wein): give the
    online algorithm [factor] copies of every machine instead of rejection
    or speed.  The classical results need [m log P] machines for O(1)
    competitiveness; here the baseline quantifies how much hardware a
    non-rejecting greedy needs to match the rejection algorithm's
    flow-time. *)

open Sched_model

val run : factor:int -> Instance.t -> Schedule.t
(** Greedy SPT (no rejection) on the augmented fleet.  Flow metrics remain
    comparable to the original instance (same jobs and releases). *)
