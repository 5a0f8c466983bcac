(** The registry exporter.

    {!json} walks {!Registry.entries} (sorted by name, labels,
    registration id), so exports of equal registry contents are
    byte-identical — golden-testable and diff-friendly. *)

val json : Registry.t -> string
(** JSON snapshot, schema ["rejsched.metrics/1"]: an object with a
    ["metrics"] array of [{name, type, labels, value}] records, one per
    counter or gauge. *)
