(* The registry exporter: a schema-versioned JSON snapshot.  It iterates
   [Registry.entries] (sorted by name, labels, id), so two exports of
   equal registry contents are byte-identical. *)

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (Ndjson.escape k) (Ndjson.escape v))
         labels)
  ^ "}"

(* [Ndjson.float_repr] tokens are spliced raw below; non-finite values
   arrive as the quoted strings "NaN"/"Infinity"/"-Infinity", so the
   document stays valid JSON and the three values stay distinguishable. *)
let json registry =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"rejsched.metrics/1\",\n  \"metrics\": [\n";
  List.iteri
    (fun k (e : Registry.entry) ->
      if k > 0 then Buffer.add_string buf ",\n";
      let value =
        match e.Registry.instrument with
        | Registry.Counter c -> Metric.Counter.value c
        | Registry.Gauge g -> Metric.Gauge.value g
      in
      Printf.bprintf buf "    { \"name\": \"%s\", \"type\": \"%s\", \"labels\": %s, \"value\": %s }"
        (Ndjson.escape e.Registry.name)
        (Registry.kind_name e.Registry.instrument)
        (json_labels e.Registry.labels) (Ndjson.float_repr value))
    (Registry.entries registry);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
