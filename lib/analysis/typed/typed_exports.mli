(** RJL104: every value a lib/ interface exports needs a caller outside
    its own module and outside test/ — lib/, bin/, bench/ and examples/
    count.  Reported at the [val] in the .mli. *)

val check : Typed_graph.t -> Typed_load.unit_info list -> Finding.t list
(** Over the lib/ units among [units] that have a [.cmti], against a
    graph whose use table holds every unit that may call them. *)
