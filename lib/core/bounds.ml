let check_eps eps =
  if not (eps > 0. && eps < 1.) then invalid_arg "Bounds: eps must lie in (0,1)"

let flow_competitive ~eps =
  check_eps eps;
  2. *. (((1. +. eps) /. eps) ** 2.)

let flow_rejection_budget ~eps =
  check_eps eps;
  2. *. eps

let rule1_threshold ~eps =
  check_eps eps;
  int_of_float (Float.ceil (1. /. eps))

let rule2_threshold ~eps =
  check_eps eps;
  int_of_float (Float.ceil (1. +. (1. /. eps)))

(* alpha - 1 + ln(alpha - 1) > 0 iff alpha - 1 > W, where W + ln W = 0
   (W ~ 0.5671, the omega constant). *)
let gamma_term_positive alpha =
  let x = alpha -. 1. in
  x > 0. && x +. log x > 0.

let gamma ~eps ~alpha =
  check_eps eps;
  if alpha <= 1. then invalid_arg "Bounds.gamma: alpha must exceed 1";
  let base = (eps /. (1. +. eps)) ** (1. /. (alpha -. 1.)) in
  if gamma_term_positive alpha then
    base /. (alpha -. 1.)
    *. ((alpha -. 1. +. log (alpha -. 1.)) ** ((alpha -. 1.) /. alpha))
  else base

let flow_energy_envelope ~eps ~alpha =
  check_eps eps;
  if alpha <= 1. then invalid_arg "Bounds: alpha must exceed 1";
  (1. +. (1. /. eps)) ** (alpha /. (alpha -. 1.))

let flow_energy_ratio ~eps ~alpha ~gamma =
  check_eps eps;
  if alpha <= 1. then invalid_arg "Bounds: alpha must exceed 1";
  if gamma <= 0. then invalid_arg "Bounds: gamma must be positive";
  let d =
    (eps /. (1. +. eps))
    -. ((alpha -. 1.)
       *. ((eps /. (gamma *. (1. +. eps) *. (alpha -. 1.))) ** (alpha /. (alpha -. 1.))))
  in
  if d <= 0. then Float.infinity
  else (2. +. (alpha /. (gamma *. (alpha -. 1.))) +. (gamma ** alpha)) /. d

let gamma_best ~eps ~alpha =
  check_eps eps;
  if alpha <= 1. then invalid_arg "Bounds: alpha must exceed 1";
  (* Coarse log-grid scan followed by two rounds of local refinement; the
     ratio is unimodal in gamma on the region where D(gamma) > 0. *)
  let best = ref (1.0, flow_energy_ratio ~eps ~alpha ~gamma:1.0) in
  let consider g =
    let r = flow_energy_ratio ~eps ~alpha ~gamma:g in
    if r < snd !best then best := (g, r)
  in
  for k = -60 to 60 do
    consider (10. ** (float_of_int k /. 10.))
  done;
  for _round = 1 to 3 do
    let g0, _ = !best in
    for k = -20 to 20 do
      consider (g0 *. (1.3 ** (float_of_int k /. 20.)))
    done
  done;
  fst !best

let flow_energy_competitive ~eps ~alpha =
  let gamma = gamma_best ~eps ~alpha in
  flow_energy_ratio ~eps ~alpha ~gamma

let energy_competitive ~alpha =
  if alpha < 1. then invalid_arg "Bounds: alpha must be >= 1";
  alpha ** alpha

let energy_lb ~alpha =
  if alpha < 1. then invalid_arg "Bounds: alpha must be >= 1";
  (alpha /. 9.) ** alpha

let smooth_mu ~alpha =
  if alpha < 1. then invalid_arg "Bounds: alpha must be >= 1";
  (alpha -. 1.) /. alpha

let smooth_lambda ~alpha =
  if alpha < 1. then invalid_arg "Bounds: alpha must be >= 1";
  alpha ** (alpha -. 1.)
