(** Earliest-Deadline-First feasibility on a fixed-speed machine.

    Classical facts this module provides (and the tests cross-check against
    YDS): preemptive EDF meets every deadline at constant speed [s] iff
    [s >= max over intervals I of (volume due in I) / |I|], and that
    critical intensity is exactly the peak speed of the YDS schedule. *)

(* rejlint: allow test-only-export — the cross-check of YDS's peak speed *)
val feasible : speed:float -> Yds.job list -> bool
(** Simulates preemptive EDF at the given constant speed and checks all
    deadlines. *)

(* rejlint: allow test-only-export — the cross-check of YDS's peak speed *)
val min_speed : Yds.job list -> float
(** The minimal feasible constant speed: [max_I volume(I) / |I|] over
    intervals with release/deadline endpoints (exact, no search). *)

(* rejlint: allow test-only-export — the cross-check of YDS's peak speed *)
val yds_peak_speed : alpha:float -> Yds.job list -> float
(** The maximum speed the YDS schedule ever uses — equal to {!min_speed}
    by the critical-interval construction (exposed for the cross-check). *)
