(** Telemetry instruments: typed counters and gauges.

    Each instrument is an anonymous mutable cell; recording is O(1) and
    never allocates.  Create instruments through {!Registry} so they
    participate in export; the constructors here exist for tests and for
    ad-hoc unregistered use. *)

module Counter : sig
  type t

  val make : unit -> t
  val value : t -> float
  val inc : t -> unit

  val add : t -> float -> unit
  (** Counters are monotone: a negative or NaN increment raises
      [Invalid_argument]. *)
end

module Gauge : sig
  type t

  val make : unit -> t
  val value : t -> float
  val set : t -> float -> unit
  val add : t -> float -> unit
  val inc : t -> unit
  val dec : t -> unit
end
