(** Span sinks: where phase timings go.

    A sink either discards spans ({!null} — one pattern match, no clock
    read, so instrumented code keeps its uninstrumented throughput) or
    aggregates them into per-phase duration histograms in a registry
    ({!spans}).  Spans are report-layer only: they observe wall time but
    never feed back into scheduling decisions, which stay byte-identical
    with any sink. *)

type t

val null : t
(** Records nothing and never consults any clock. *)

val spans : ?metric:string -> ?buckets:float list -> clock:Clock.t -> Registry.t -> t
(** Aggregating sink: each phase gets a histogram
    [metric{phase="<name>"}] (default family ["obs_phase_seconds"],
    default buckets 100ns..1s decades) in the registry, created on first
    use. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t phase f] runs [f] and records its duration against [phase]
    (also on exception).  With {!null} this is exactly [f ()]. *)

val default_buckets : float list
