(** Closed-form queueing predictions used to validate the simulator.

    A single machine under Poisson arrivals and FIFO service is an M/G/1
    queue, whose stationary mean waiting time has the exact
    Pollaczek-Khinchine form — an independent ground truth the event-driven
    driver must reproduce. *)

val mg1_mean_flow : lambda:float -> es:float -> es2:float -> float
(** Mean flow (sojourn) time: waiting plus service. *)

val moments_uniform : lo:float -> hi:float -> float * float
(** First two moments of Uniform(lo, hi). *)

val moments_exponential : mean:float -> float * float
(** First two moments of Exp with the given mean. *)

val moments_bimodal : lo:float -> hi:float -> p_hi:float -> float * float
