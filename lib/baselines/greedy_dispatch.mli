(** Non-rejecting greedy baselines for total flow-time.

    Both dispatch each arriving job to the machine minimizing its estimated
    completion time (remaining work + pending work + [p_ij]); they differ in
    the local service order.  These are the "practical heuristics" the
    paper's introduction contrasts with: no rejections, hence no worst-case
    guarantee. *)

open Sched_sim

val fifo : unit Driver.policy
(** First-in-first-out service order. *)

val spt : unit Driver.policy
(** Shortest-processing-time service order (the paper's service order
    without the rejection rules). *)
