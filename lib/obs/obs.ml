(* The telemetry handle a simulation run carries: one registry for
   instruments, one sink for spans.  Construction chooses the observation
   level; the driver only ever reads the registry. *)

type t = { registry : Registry.t; sink : Sink.t }

let create ?(sink = Sink.null) ?registry () =
  let registry = match registry with Some r -> r | None -> Registry.create () in
  { registry; sink }

let timed ?metric ?buckets ?clock () =
  let registry = Registry.create () in
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  { registry; sink = Sink.spans ?metric ?buckets ~clock registry }

let registry t = t.registry
let sink t = t.sink
