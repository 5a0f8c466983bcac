(* Span sinks.  A caller wraps a phase in [time]; the [Null] sink makes
   that wrapper a single pattern match — no clock read, no histogram, no
   allocation beyond the closure the caller already built. *)

type spans = {
  clock : Clock.t;
  registry : Registry.t;
  buckets : float list;
  metric : string;
  help : string;
  mutable cache : (string * Metric.Histogram.t) list;
}

type t = Null | Spans of spans

let null = Null

(* 100ns .. 1s: driver phases are microseconds, whole runs can be long. *)
let default_buckets = [ 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1. ]

let spans ?(metric = "obs_phase_seconds") ?(buckets = default_buckets) ~clock registry =
  Spans
    {
      clock;
      registry;
      buckets;
      metric;
      help = "Wall-clock duration of instrumented phases (seconds)";
      cache = [];
    }

let hist s phase =
  match List.assoc_opt phase s.cache with
  | Some h -> h
  | None ->
      let h =
        Registry.histogram s.registry ~help:s.help
          ~labels:[ ("phase", phase) ]
          ~buckets:s.buckets s.metric
      in
      s.cache <- (phase, h) :: s.cache;
      h

let time t phase f =
  match t with
  | Null -> f ()
  | Spans s ->
      let h = hist s phase in
      let t0 = s.clock () in
      Fun.protect ~finally:(fun () -> Metric.Histogram.observe h (s.clock () -. t0)) f
