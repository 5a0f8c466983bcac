(** The telemetry handle: a {!Registry.t} for instruments plus a
    {!Sink.t} for spans.

    Pass one to {!Sched_sim.Driver.run} (its [?obs] argument) to have
    the session record its decision counters and per-machine queue-depth
    gauges when it closes; the driver itself times no phases.  Telemetry is
    strictly observational: scheduling decisions are byte-identical with
    or without a handle (pinned by the differential tests). *)

type t

val create : ?sink:Sink.t -> ?registry:Registry.t -> unit -> t
(** Counters and gauges only by default ([sink] defaults to
    {!Sink.null}, so no clock is ever read); pass an explicit registry
    to accumulate several runs into one snapshot. *)

val timed : ?metric:string -> ?buckets:float list -> ?clock:Clock.t -> unit -> t
(** Fresh registry plus an aggregating span sink ({!Sink.spans});
    [clock] defaults to {!Clock.monotonic}[ ()]. *)

val registry : t -> Registry.t

val sink : t -> Sink.t
(** The span sink, for callers that time their own phases. *)
