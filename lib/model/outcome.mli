(** Per-job outcomes of a run.

    In the rejection model every job either completes on some machine or is
    rejected at some time (possibly mid-execution, under the paper's
    Rejection Rule 1).  Following the paper, the flow-time of a rejected job
    is the time between its release and its rejection. *)

type completion = {
  machine : Machine.id;
  start : Time.t;
  speed : float;  (** Volume processed per unit time during execution. *)
  finish : Time.t;
}

type rejection = {
  time : Time.t;  (** Rejection instant. *)
  assigned_to : Machine.id option;  (** Machine the job was dispatched to. *)
  was_running : bool;  (** True when interrupted mid-execution (Rule 1). *)
}

type t = Completed of completion | Rejected of rejection

val end_time : t -> Time.t
(** Completion time, or rejection time for rejected jobs. *)

val flow_time : Job.t -> t -> Time.t
(** [end_time - release]; non-negative for any causally valid outcome. *)

val pp : Format.formatter -> t -> unit
