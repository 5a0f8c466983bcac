open Sched_stats

type t = { name : string; fill : Rng.t -> base:float -> float array -> unit }

let name t = t.name
let fill t rng ~base sizes = t.fill rng ~base sizes

(* Every fill writes (and draws for) machines 0..m-1 in index order: the
   draw order is part of what a seed means, and the saved-instance
   goldens in the workload tests pin it. *)

let identical = { name = "identical"; fill = (fun _ ~base v -> Array.fill v 0 (Array.length v) base) }

let related ~speeds =
  Array.iter (fun s -> if s <= 0. then invalid_arg "Shape.related: non-positive speed") speeds;
  let k = Array.length speeds in
  if k = 0 then invalid_arg "Shape.related: empty speeds";
  {
    name = Printf.sprintf "related(%d speeds)" k;
    fill =
      (fun _ ~base v ->
        for i = 0 to Array.length v - 1 do
          v.(i) <- base /. speeds.(i mod k)
        done);
  }

let unrelated ~spread =
  if spread < 1. then invalid_arg "Shape.unrelated: spread must be >= 1";
  {
    name = Printf.sprintf "unrelated(%g)" spread;
    fill =
      (fun rng ~base v ->
        for i = 0 to Array.length v - 1 do
          v.(i) <- base *. Rng.float_range rng (1. /. spread) spread
        done);
  }

let restricted ~eligible_prob =
  if not (eligible_prob > 0. && eligible_prob <= 1.) then
    invalid_arg "Shape.restricted: eligible_prob must be in (0,1]";
  {
    name = Printf.sprintf "restricted(%g)" eligible_prob;
    fill =
      (fun rng ~base v ->
        let m = Array.length v in
        let any = ref false in
        for i = 0 to m - 1 do
          if Rng.float rng < eligible_prob then begin
            v.(i) <- base;
            any := true
          end
          else v.(i) <- Float.infinity
        done;
        if not !any then v.(Rng.int rng m) <- base);
  }

let clustered ~clusters ~penalty =
  if clusters < 1 then invalid_arg "Shape.clustered: need at least one cluster";
  if penalty < 1. then invalid_arg "Shape.clustered: penalty must be >= 1";
  {
    name = Printf.sprintf "clustered(%d,x%g)" clusters penalty;
    fill =
      (fun rng ~base v ->
        let m = Array.length v in
        let k = min clusters m in
        let mine = Rng.int rng k in
        for i = 0 to m - 1 do
          v.(i) <- (if i mod k = mine then base else base *. penalty)
        done);
  }
