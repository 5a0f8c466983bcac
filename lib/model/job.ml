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

let record ~id ~release ~weight ~deadline sizes ~best ~count ~mask =
  (match deadline with
  | Some d when not (Time.gt d release) -> invalid_arg "Job.create: deadline <= release"
  | _ -> ());
  {
    id;
    release;
    weight;
    sizes;
    deadline;
    best_machine = best;
    eligible_count = count;
    eligible_mask = mask;
  }

(* The full check and summary of a copied size vector from index
   [from] on, for one that [build]'s fast pass stopped at: [copy.(from)]
   is infinite or bad.  Sizes [0 .. from - 1] passed that pass, so they
   are valid and finite: the count starts at [from], the mask at their
   [from] low bits (saturated into bit 62 past machine 61), and the
   leftmost minimum at the fast pass's [mn] and [best].  One loop reads
   each size unboxed ([Array.iter]'s closure would box every one) and
   holds no call and no raise: under ocamlopt without flambda every
   register is caller-saved, so one [invalid_arg] inside it kept every
   accumulator on the stack.  It folds validity into a flag instead, and
   the raise comes after it; a bad size makes the summaries moot, so
   they may read it.  [not (p > 0.)] also catches NaN; [p -. p = 0.] is
   [Float.is_finite]. *)
let summarize ~id ~release ~weight ~deadline copy ~from ~mn ~best =
  let n = Array.length copy in
  let positive = ref true in
  let mn = ref mn and best = ref best and count = ref from in
  let mask = ref (if from <= 62 then (1 lsl from) - 1 else -1) in
  for k = from to n - 1 do
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
  record ~id ~release ~weight ~deadline copy ~best:!best ~count:!count ~mask:!mask

(* Validates a size vector and builds the job around a copy of it.  Most
   vectors are all finite and positive (every family but restricted), so
   a fast pass tests only that, two compares per size, and keeps the
   leftmost minimum with a plain [<]: on such sizes it has the bits
   [Array.fold_left Float.min infinity] would, without the sign test
   [Float.min] pays per element.  It stops at the first size that fails
   the test (NaN, -0., 0., a negative size or an infinity), and
   {!summarize} resumes there, so every vector costs one pass.  When it
   reaches the end, every machine is eligible, so the count is [n] and
   the mask is [n] low bits, saturated into bit 62 past machine 61, with
   no per-size work.  [k] never leaves [0 .. n - 1] inside the loop, so
   the loads skip the bounds check, and [inf] is hoisted so the loop does
   not reload [Stdlib.infinity] through its module block.  The job keeps
   the machine, not the size: an int field costs one word, a float field
   three (OCaml boxes it). *)
let build ~id ~release ~weight ~deadline sizes =
  let n = Array.length sizes in
  if n = 0 then invalid_arg "Job.create: empty size vector";
  let copy = Array.sub sizes 0 n in
  let inf = Float.infinity in
  let k = ref 0 and stop = ref n and mn = ref inf and best = ref 0 in
  while !k < !stop do
    let p = Array.unsafe_get copy !k in
    if p > 0. && p < inf then begin
      if p < !mn then begin
        mn := p;
        best := !k
      end;
      incr k
    end
    else stop := !k
  done;
  if !k = n then
    record ~id ~release ~weight ~deadline copy ~best:!best ~count:n
      ~mask:(if n <= 62 then (1 lsl n) - 1 else -1)
  else summarize ~id ~release ~weight ~deadline copy ~from:!k ~mn:!mn ~best:!best

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
