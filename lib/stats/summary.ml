type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  total : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let of_array a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.of_array: empty";
  let total = Array.fold_left ( +. ) 0. a in
  let mean = total /. float_of_int n in
  let var =
    if n < 2 then 0.
    else
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. a
      /. float_of_int (n - 1)
  in
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  {
    count = n;
    mean;
    stddev = sqrt var;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile sorted 0.5;
    p90 = percentile sorted 0.9;
    p99 = percentile sorted 0.99;
    total;
  }

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.4g sd=%.3g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g"
    t.count t.mean t.stddev t.min t.p50 t.p90 t.p99 t.max
