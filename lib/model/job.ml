type id = int

type t = {
  id : id;
  release : Time.t;
  weight : float;
  sizes : float array;
  deadline : Time.t option;
}

(* Validates a size vector and returns a copy, in one loop that reads
   each size unboxed ([Array.iter]'s closure would box every one).
   [not (p > 0.)] also catches NaN; [p -. p = 0.] is [Float.is_finite]. *)
let copy_sizes sizes =
  let n = Array.length sizes in
  if n = 0 then invalid_arg "Job.create: empty size vector";
  let copy = Array.make n 0. in
  let finite = ref false in
  for k = 0 to n - 1 do
    let p = sizes.(k) in
    if not (p > 0.) then invalid_arg "Job.create: sizes must be positive";
    if p -. p = 0. then finite := true;
    copy.(k) <- p
  done;
  if not !finite then invalid_arg "Job.create: no eligible machine (all sizes infinite)";
  copy

let create ~id ~release ?(weight = 1.) ?deadline ~sizes () =
  if not (Time.nonneg release) then invalid_arg "Job.create: negative release";
  if not (Float.is_finite release) then invalid_arg "Job.create: release must be finite";
  if weight <= 0. || not (Float.is_finite weight) then
    invalid_arg "Job.create: weight must be positive and finite";
  let sizes = copy_sizes sizes in
  (match deadline with
  | Some d when not (Time.gt d release) -> invalid_arg "Job.create: deadline <= release"
  | _ -> ());
  { id; release; weight; sizes; deadline }

let size j i = j.sizes.(i)
let eligible j i = Float.is_finite j.sizes.(i)

(* A plain [<] scan: sizes are positive and never NaN, so it returns the
   bits [Array.fold_left Float.min infinity] would, without the sign test
   [Float.min] pays per element. *)
let min_size j =
  let sizes = j.sizes in
  let mn = ref Float.infinity in
  for i = 0 to Array.length sizes - 1 do
    let p = sizes.(i) in
    if p < !mn then mn := p
  done;
  !mn

let best_machine j =
  let best = ref 0 in
  Array.iteri (fun i p -> if p < j.sizes.(!best) then best := i) j.sizes;
  !best

let span j = Option.map (fun d -> d -. j.release) j.deadline

let with_sizes j sizes = { j with sizes = copy_sizes sizes }

let compare_by_release a b =
  match Float.compare a.release b.release with 0 -> Int.compare a.id b.id | c -> c

let pp ppf j =
  Format.fprintf ppf "job#%d[r=%a w=%g p=[%s]%s]" j.id Time.pp j.release j.weight
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%g") j.sizes)))
    (match j.deadline with None -> "" | Some d -> Printf.sprintf " d=%g" d)
