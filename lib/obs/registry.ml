(* The metric registry: a flat set of named instruments with a
   deterministic iteration order.

   Registration is get-or-create on (name, sorted labels) and happens at
   run setup, so an O(n) scan is fine; the hot path holds the instrument
   cell directly and never touches the registry.  Iteration sorts by
   (name, labels, id) with typed comparators — id ties are unreachable
   (the key is unique) but keep the order total, per the repo's
   determinism contract (rejlint RJL002/RJL003). *)

type instrument =
  | Counter of Metric.Counter.t
  | Gauge of Metric.Gauge.t

type entry = {
  id : int;
  name : string;
  labels : (string * string) list;
  help : string;
  instrument : instrument;
}

type t = { mutable entries : entry list (* reverse creation order *); mutable next : int }

let create () = { entries = []; next = 0 }

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge"

let valid_name n =
  String.length n > 0
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

let compare_labels la lb =
  List.compare
    (fun (k, v) (k', v') ->
      match String.compare k k' with 0 -> String.compare v v' | c -> c)
    la lb

let normalize_labels name labels =
  let sorted = List.sort (fun (k, _) (k', _) -> String.compare k k') labels in
  let rec dup = function
    | (k, _) :: ((k', _) :: _ as rest) -> if String.equal k k' then Some k else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some k -> invalid_arg (Printf.sprintf "Obs.Registry: duplicate label %S on %s" k name)
  | None -> ());
  List.iter
    (fun (k, _) ->
      if not (valid_name k) then
        invalid_arg (Printf.sprintf "Obs.Registry: invalid label name %S on %s" k name))
    sorted;
  sorted

let register t ~name ~labels ~help make_instrument =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Obs.Registry: invalid metric name %S" name);
  let labels = normalize_labels name labels in
  let same = List.filter (fun e -> String.equal e.name name) t.entries in
  match List.find_opt (fun e -> compare_labels e.labels labels = 0) same with
  | Some e -> e.instrument
  | None ->
      let instrument = make_instrument () in
      (match same with
      | e :: _ when kind_name e.instrument <> kind_name instrument ->
          invalid_arg
            (Printf.sprintf "Obs.Registry: %s is already a %s family" name
               (kind_name e.instrument))
      | _ -> ());
      t.entries <- { id = t.next; name; labels; help; instrument } :: t.entries;
      t.next <- t.next + 1;
      instrument

let counter t ?(help = "") ?(labels = []) name =
  match register t ~name ~labels ~help (fun () -> Counter (Metric.Counter.make ())) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Obs.Registry: %s is not a counter" name)

let gauge t ?(help = "") ?(labels = []) name =
  match register t ~name ~labels ~help (fun () -> Gauge (Metric.Gauge.make ())) with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Obs.Registry: %s is not a gauge" name)

let entries t =
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> (
          match compare_labels a.labels b.labels with
          | 0 -> Int.compare a.id b.id
          | c -> c)
      | c -> c)
    t.entries

(* Fold [src] into [into], instrument by instrument, iterating [entries]
   — i.e. sorted by (name, labels) — so that a sequence of merges is a
   deterministic function of the shard contents and the merge order.
   The experiment suite runs each pool task against its own shard
   registry and merges the shards back in task order: exports are then
   byte-identical whatever the domain count (including sequential). *)
let merge ~into src =
  List.iter
    (fun e ->
      match e.instrument with
      | Counter c ->
          Metric.Counter.add
            (counter into ~help:e.help ~labels:e.labels e.name)
            (Metric.Counter.value c)
      | Gauge g ->
          (* Last-merged-shard wins: the same "final value" semantics a
             shared registry would have shown sequentially. *)
          Metric.Gauge.set (gauge into ~help:e.help ~labels:e.labels e.name) (Metric.Gauge.value g))
    (entries src)

let find t ~name ~labels =
  let labels = List.sort (fun (k, _) (k', _) -> String.compare k k') labels in
  List.find_opt
    (fun e -> String.equal e.name name && compare_labels e.labels labels = 0)
    t.entries

let size t = List.length t.entries
