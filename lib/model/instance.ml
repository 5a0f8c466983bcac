type t = { name : string; machines : Machine.t array; jobs : Job.t array; by_id : Job.t array }

let check_fleet machines =
  if Array.length machines = 0 then invalid_arg "Instance.create: no machines";
  Array.iteri
    (fun i (mc : Machine.t) ->
      if mc.id <> i then invalid_arg "Instance.create: machine ids must be 0..m-1")
    machines

let create ?(name = "instance") ~machines ~jobs () =
  check_fleet machines;
  let m = Array.length machines in
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let by_id = Array.copy jobs in
  let seen = Array.make n false in
  Array.iter
    (fun (j : Job.t) ->
      if Array.length j.sizes <> m then
        invalid_arg
          (Printf.sprintf "Instance.create: job %d has %d sizes for %d machines" j.id
             (Array.length j.sizes) m);
      if j.id < 0 || j.id >= n || seen.(j.id) then
        invalid_arg "Instance.create: job ids must form 0..n-1";
      seen.(j.id) <- true;
      by_id.(j.id) <- j)
    jobs;
  Array.sort Job.compare_by_release jobs;
  { name; machines; jobs; by_id }

let with_machines ?name t machines =
  if machines == t.machines && name = None then t
  else
    create ~name:(Option.value name ~default:t.name) ~machines ~jobs:(Array.to_list t.jobs) ()

let n t = Array.length t.jobs
let m t = Array.length t.machines

let job t id =
  if id < 0 || id >= Array.length t.by_id then
    invalid_arg (Printf.sprintf "Instance.job: unknown id %d" id);
  t.by_id.(id)

let machine t id = t.machines.(id)
let jobs_by_release t = t.jobs
let total_weight t = Array.fold_left (fun acc (j : Job.t) -> acc +. j.weight) 0. t.jobs

let total_min_volume t =
  Array.fold_left (fun acc j -> acc +. Job.min_size j) 0. t.jobs

let delta t =
  let mx = ref 0. and mn = ref Float.infinity in
  Array.iter
    (fun (j : Job.t) ->
      Array.iter
        (fun p ->
          if Float.is_finite p then begin
            if p > !mx then mx := p;
            if p < !mn then mn := p
          end)
        j.sizes)
    t.jobs;
  if !mn = Float.infinity then 1. else !mx /. !mn

let has_deadlines t =
  Array.length t.jobs > 0
  && Array.for_all (fun (j : Job.t) -> Option.is_some j.deadline) t.jobs

let horizon t =
  let latest =
    Array.fold_left
      (fun acc (j : Job.t) ->
        Float.max acc (match j.deadline with Some d -> d | None -> j.release))
      0. t.jobs
  in
  latest +. total_min_volume t +. 1.

let pp_stats ppf t =
  Format.fprintf ppf "%s: n=%d m=%d delta=%.3g total_weight=%g min_volume=%g" t.name (n t)
    (m t) (delta t) (total_weight t) (total_min_volume t)
