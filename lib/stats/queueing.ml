let mg1_mean_wait ~lambda ~es ~es2 =
  if lambda <= 0. then invalid_arg "Queueing: lambda must be positive";
  if es <= 0. || es2 <= 0. then invalid_arg "Queueing: moments must be positive";
  let rho = lambda *. es in
  if rho >= 1. then invalid_arg "Queueing: unstable queue (rho >= 1)";
  lambda *. es2 /. (2. *. (1. -. rho))

let mg1_mean_flow ~lambda ~es ~es2 = mg1_mean_wait ~lambda ~es ~es2 +. es

let moments_uniform ~lo ~hi =
  if not (0. <= lo && lo < hi) then invalid_arg "Queueing.moments_uniform";
  let es = (lo +. hi) /. 2. in
  let es2 = ((hi ** 3.) -. (lo ** 3.)) /. (3. *. (hi -. lo)) in
  (es, es2)

let moments_exponential ~mean =
  if mean <= 0. then invalid_arg "Queueing.moments_exponential";
  (mean, 2. *. mean *. mean)

let moments_bimodal ~lo ~hi ~p_hi =
  if not (0. < lo && lo <= hi && 0. <= p_hi && p_hi <= 1.) then
    invalid_arg "Queueing.moments_bimodal";
  let es = ((1. -. p_hi) *. lo) +. (p_hi *. hi) in
  let es2 = ((1. -. p_hi) *. lo *. lo) +. (p_hi *. hi *. hi) in
  (es, es2)
