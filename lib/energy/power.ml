type t = { name : string; eval : float -> float }

let name t = t.name

let eval t s =
  if s < 0. then invalid_arg "Power.eval: negative speed";
  t.eval s

let polynomial ~alpha =
  if alpha < 1. then invalid_arg "Power.polynomial: alpha must be >= 1";
  { name = Printf.sprintf "s^%g" alpha; eval = (fun s -> s ** alpha) }

let affine_polynomial ~alpha ~static =
  if alpha < 1. then invalid_arg "Power.affine_polynomial: alpha must be >= 1";
  if static < 0. then invalid_arg "Power.affine_polynomial: negative static power";
  {
    name = Printf.sprintf "s^%g+%g" alpha static;
    eval = (fun s -> if s = 0. then 0. else (s ** alpha) +. static);
  }

let piecewise steps =
  if steps = [] then invalid_arg "Power.piecewise: empty";
  let rec check prev_s prev_p = function
    | [] -> ()
    | (s, p) :: rest ->
        if s <= prev_s then invalid_arg "Power.piecewise: speeds must increase";
        if p < prev_p then invalid_arg "Power.piecewise: powers must not decrease";
        check s p rest
  in
  check 0. 0. steps;
  let eval s =
    if s = 0. then 0.
    else begin
      let rec find = function
        | [] -> snd (List.nth steps (List.length steps - 1)) (* beyond top speed: clamp *)
        | (sk, pk) :: rest -> if s <= sk then pk else find rest
      in
      find steps
    end
  in
  { name = Printf.sprintf "piecewise(%d)" (List.length steps); eval }

let optimal_speed_for_flow ~alpha ~weight =
  if alpha <= 1. then invalid_arg "Power.optimal_speed_for_flow: alpha must exceed 1";
  if weight <= 0. then invalid_arg "Power.optimal_speed_for_flow: weight must be positive";
  (weight /. (alpha -. 1.)) ** (1. /. alpha)
