type t = { name : string; mean : float option; sample : Rng.t -> float }

let name d = d.name
let mean d = d.mean
let sample d rng = d.sample rng

let constant v =
  assert (v > 0.);
  { name = Printf.sprintf "const(%g)" v; mean = Some v; sample = (fun _ -> v) }

let uniform ~lo ~hi =
  assert (0. < lo && lo <= hi);
  { name = Printf.sprintf "uniform(%g,%g)" lo hi;
    mean = Some ((lo +. hi) /. 2.);
    sample = (fun rng -> Rng.float_range rng lo hi) }

let exponential ~mean =
  assert (mean > 0.);
  { name = Printf.sprintf "exp(%g)" mean;
    mean = Some mean;
    sample = (fun rng -> Rng.exponential rng (1. /. mean)) }

let bounded_pareto ~shape ~lo ~hi =
  assert (shape > 0. && 0. < lo && lo < hi);
  (* Inverse CDF of the Pareto truncated to [lo, hi]. *)
  let la = lo ** shape and ha = hi ** shape in
  let mean =
    if Float.abs (shape -. 1.) < 1e-9 then Some (lo *. hi /. (hi -. lo) *. log (hi /. lo))
    else
      let num = la /. (1. -. (la /. ha)) *. (shape /. (shape -. 1.)) in
      Some (num *. ((1. /. (lo ** (shape -. 1.))) -. (1. /. (hi ** (shape -. 1.)))))
  in
  { name = Printf.sprintf "bpareto(%g,%g,%g)" shape lo hi;
    mean;
    sample =
      (fun rng ->
        let u = Rng.float rng in
        let denom = 1. -. (u *. (1. -. (la /. ha))) in
        lo /. (denom ** (1. /. shape))) }

let bimodal ~lo ~hi ~p_hi =
  assert (0. < lo && lo <= hi && 0. <= p_hi && p_hi <= 1.);
  { name = Printf.sprintf "bimodal(%g,%g,p=%g)" lo hi p_hi;
    mean = Some (((1. -. p_hi) *. lo) +. (p_hi *. hi));
    sample = (fun rng -> if Rng.float rng < p_hi then hi else lo) }

let lognormal ~mu ~sigma =
  assert (sigma >= 0.);
  let sample rng =
    (* Box-Muller; we burn one of the pair for simplicity. *)
    let u1 = 1. -. Rng.float rng and u2 = Rng.float rng in
    let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
    exp (mu +. (sigma *. z))
  in
  { name = Printf.sprintf "lognormal(%g,%g)" mu sigma;
    mean = Some (exp (mu +. (sigma *. sigma /. 2.)));
    sample }

let quantize ~grid d =
  assert (grid > 0.);
  { name = Printf.sprintf "quantize(%g,%s)" grid d.name;
    mean = None;
    sample =
      (fun rng ->
        let v = d.sample rng in
        let q = Float.ceil (v /. grid) *. grid in
        if q <= 0. then grid else q) }
