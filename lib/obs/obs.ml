(* The telemetry handle a simulation run carries: one registry of
   counters and gauges, which the session fills when it closes. *)

type t = { registry : Registry.t }

let create ?registry () =
  { registry = (match registry with Some r -> r | None -> Registry.create ()) }

let timed () = create ()
let registry t = t.registry
