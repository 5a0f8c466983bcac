(** Rendition of the ESA 2016 predecessor algorithm ([5] in the paper):
    speed augmentation [(1 + eps_s)] combined with an [eps_r] rejection
    budget.

    The original gives an [O(1/(eps_s eps_r))]-competitive algorithm whose
    machines run [(1 + eps_s)] times faster than the adversary's.  We
    reproduce its behaviour by running the paper's dual-fitting dispatch
    and Rule-1-only rejection (the rule [5] uses) on a fleet whose speed
    factors are scaled by [(1 + eps_s)]; flow-times are measured in real
    time, so the algorithm genuinely benefits from the extra speed while
    OPT bounds are computed against the unit-speed fleet.  See DESIGN.md's
    substitution notes. *)

open Sched_model
open Sched_sim

val fleet : eps_s:float -> Machine.t array -> Machine.t array
(** The machines sped up by [(1 + eps_s)]; raises [Invalid_argument]
    unless [eps_s > 0]. *)

val policy : eps_r:float -> Rejection.Flow_reject.state Driver.policy
(** Theorem 1's dispatch with Rule 1 only, at rejection budget knob
    [eps_r]: the algorithm to run on {!fleet}. *)
