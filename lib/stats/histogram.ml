type t = { edges : float array; counts : int array }

let build edges values =
  let bins = Array.length edges - 1 in
  let counts = Array.make bins 0 in
  Array.iter
    (fun v ->
      (* Rightmost bin whose lower edge is <= v (clamped). *)
      let rec find k = if k <= 0 || edges.(k) <= v then k else find (k - 1) in
      let k = min (bins - 1) (max 0 (find (bins - 1))) in
      counts.(k) <- counts.(k) + 1)
    values;
  { edges; counts }

let log_bins ?(bins = 12) values =
  if Array.length values = 0 then invalid_arg "Histogram.log_bins: empty";
  Array.iter (fun v -> if v <= 0. then invalid_arg "Histogram.log_bins: non-positive value") values;
  let lo = Array.fold_left Float.min Float.infinity values in
  let hi = Array.fold_left Float.max Float.neg_infinity values in
  let hi = if hi <= lo then lo *. 2. else hi in
  let ratio = hi /. lo in
  let edges =
    Array.init (bins + 1) (fun k -> lo *. (ratio ** (float_of_int k /. float_of_int bins)))
  in
  build edges values

let counts t =
  List.init (Array.length t.counts) (fun k -> (t.edges.(k), t.edges.(k + 1), t.counts.(k)))

let render ?(width = 50) t =
  if width < 1 then invalid_arg "Histogram.render: width < 1";
  let max_count = Array.fold_left max 1 t.counts in
  let buf = Buffer.create 512 in
  Array.iteri
    (fun k c ->
      let bar = String.make (c * width / max_count) '#' in
      Buffer.add_string buf
        (Printf.sprintf "%10.3g - %-10.3g |%-*s %d\n" t.edges.(k) t.edges.(k + 1) width bar c))
    t.counts;
  Buffer.contents buf
