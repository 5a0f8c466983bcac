open Sched_stats

(* The left-hand side of the smooth inequality. *)
let lhs p ~a ~b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Smooth.lhs: length mismatch";
  let acc = ref 0. and prefix = ref 0. in
  for i = 0 to n - 1 do
    prefix := !prefix +. a.(i);
    acc := !acc +. (Power.eval p (b.(i) +. !prefix) -. Power.eval p !prefix)
  done;
  !acc

(* Structured candidates that are known to be near-extremal for s^alpha:
   all-equal blocks, a single large b against a ramp of a's, geometric
   growth. *)
let structured n =
  let patterns = ref [] in
  let push a b = patterns := (a, b) :: !patterns in
  for k = 1 to n do
    push (Array.make k 1.) (Array.make k 1.);
    push (Array.make k 1.) (Array.init k (fun i -> if i = k - 1 then float_of_int k else 0.));
    push (Array.make k 1.) (Array.init k (fun i -> if i = 0 then float_of_int k else 0.));
    push (Array.init k (fun i -> 2. ** float_of_int i)) (Array.init k (fun i -> 2. ** float_of_int i));
    push (Array.init k (fun i -> float_of_int (i + 1))) (Array.make k 1.)
  done;
  !patterns

let lambda_of p ~mu ~a ~b =
  let denom = Power.eval p (Array.fold_left ( +. ) 0. b) in
  if denom <= 0. then 0.
  else (lhs p ~a ~b -. (mu *. Power.eval p (Array.fold_left ( +. ) 0. a))) /. denom

let required_lambda ?(trials = 2000) ?(n = 8) p ~mu rng =
  let worst = ref 0. in
  let consider (a, b) =
    let l = lambda_of p ~mu ~a ~b in
    if l > !worst then worst := l
  in
  List.iter consider (structured n);
  for _ = 1 to trials do
    let k = 1 + Rng.int rng n in
    let a = Array.init k (fun _ -> Rng.float_range rng 0. 4.) in
    let b = Array.init k (fun _ -> Rng.float_range rng 0. 4.) in
    consider (a, b);
    (* Sparse variant: zero out most of b. *)
    let b' = Array.map (fun x -> if Rng.float rng < 0.7 then 0. else x) b in
    consider (a, b')
  done;
  !worst
