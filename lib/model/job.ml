type id = int

type t = {
  id : id;
  release : Time.t;
  weight : float;
  sizes : float array;
  deadline : Time.t option;
  best_machine : int;
  eligible_count : int;
  eligible_mask : int;
}

(* Validates a size vector and builds the job around a copy of it,
   summarizing the vector in one loop that reads each size unboxed
   ([Array.iter]'s closure would box every one).  The loop holds no call
   and no raise: under ocamlopt without flambda every register is
   caller-saved, so one [invalid_arg] inside it kept every accumulator on
   the stack.  It folds validity into a flag instead, and the raise comes
   after it; a bad size makes the summaries moot, so they may read it.
   [not (p > 0.)] also catches NaN; [p -. p = 0.] is [Float.is_finite].
   The minimum is a plain [<] scan that keeps the leftmost minimal
   machine: sizes are positive and never NaN, so its size has the bits
   [Array.fold_left Float.min infinity] would, without the sign test
   [Float.min] pays per element.  The job keeps the machine, not the
   size: an int field costs one word, a float field three (OCaml boxes
   it). *)
let build ~id ~release ~weight ~deadline sizes =
  let n = Array.length sizes in
  if n = 0 then invalid_arg "Job.create: empty size vector";
  let copy = Array.sub sizes 0 n in
  let positive = ref true in
  let mn = ref Float.infinity and best = ref 0 and count = ref 0 and mask = ref 0 in
  for k = 0 to n - 1 do
    let p = copy.(k) in
    if not (p > 0.) then positive := false;
    if p -. p = 0. then begin
      incr count;
      mask := !mask lor (1 lsl if k <= 61 then k else 62)
    end;
    if p < !mn then begin
      mn := p;
      best := k
    end
  done;
  if not !positive then invalid_arg "Job.create: sizes must be positive";
  if !count = 0 then invalid_arg "Job.create: no eligible machine (all sizes infinite)";
  (match deadline with
  | Some d when not (Time.gt d release) -> invalid_arg "Job.create: deadline <= release"
  | _ -> ());
  {
    id;
    release;
    weight;
    sizes = copy;
    deadline;
    best_machine = !best;
    eligible_count = !count;
    eligible_mask = !mask;
  }

let create ~id ~release ?(weight = 1.) ?deadline ~sizes () =
  if not (Time.nonneg release) then invalid_arg "Job.create: negative release";
  if not (Float.is_finite release) then invalid_arg "Job.create: release must be finite";
  if weight <= 0. || not (Float.is_finite weight) then
    invalid_arg "Job.create: weight must be positive and finite";
  build ~id ~release ~weight ~deadline sizes

let size j i = j.sizes.(i)
(* Inlined: every policy calls it once per machine per arrival, and an
   out-of-line call there spills the scan's incumbents around it. *)
let[@inline] eligible j i = Float.is_finite j.sizes.(i)
let min_size j = j.sizes.(j.best_machine)

let with_sizes j sizes =
  build ~id:j.id ~release:j.release ~weight:j.weight ~deadline:j.deadline sizes

let compare_by_release a b =
  match Float.compare a.release b.release with 0 -> Int.compare a.id b.id | c -> c

let pp ppf j =
  Format.fprintf ppf "job#%d[r=%a w=%g p=[%s]%s]" j.id Time.pp j.release j.weight
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%g") j.sizes)))
    (match j.deadline with None -> "" | Some d -> Printf.sprintf " d=%g" d)
