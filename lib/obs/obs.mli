(** The telemetry handle: a {!Registry.t} of counters and gauges.

    Pass one to {!Sched_sim.Driver.run} (its [?obs] argument) to have
    the session record its decision counters and per-machine queue-depth
    gauges when it closes; nothing is recorded per event and no clock is
    read.  Telemetry is strictly observational: scheduling decisions are
    byte-identical with or without a handle (pinned by the differential
    tests). *)

type t

val create : ?registry:Registry.t -> unit -> t
(** A fresh registry by default; pass an explicit registry to
    accumulate several runs into one snapshot. *)

val timed : unit -> t
(** The same as [create ()].  Kept only because the layer-ladder
    benchmark ([bench/ladder/ladder.ml]) calls it; delete it when the
    ladder stops doing so. *)

val registry : t -> Registry.t
