open Sched_model

let rebuild ~name instance f =
  let jobs =
    Array.to_list (Array.map f (Instance.jobs_by_release instance))
  in
  let machines =
    Array.init (Instance.m instance) (Instance.machine instance)
  in
  Instance.create ~name ~machines ~jobs ()

let scale_time c instance =
  if c <= 0. || not (Float.is_finite c) then invalid_arg "Transform.scale_time: bad factor";
  rebuild ~name:(instance.Instance.name ^ Printf.sprintf "(x%g time)" c) instance
    (fun (j : Job.t) ->
      Job.create ~id:j.id ~release:(c *. j.release) ~weight:j.weight
        ?deadline:(Option.map (fun d -> c *. d) j.deadline)
        ~sizes:(Array.map (fun p -> c *. p) j.sizes)
        ())

let shift_releases delta instance =
  if delta < 0. then invalid_arg "Transform.shift_releases: negative shift";
  rebuild ~name:(instance.Instance.name ^ Printf.sprintf "(+%g)" delta) instance
    (fun (j : Job.t) ->
      Job.create ~id:j.id ~release:(j.release +. delta) ~weight:j.weight
        ?deadline:(Option.map (fun d -> d +. delta) j.deadline)
        ~sizes:j.sizes ())

let permute_jobs rng instance =
  let jobs = Array.copy (Instance.jobs_by_release instance) in
  (* Fisher–Yates on the presentation order only: ids and attributes are
     untouched, and [Instance.create] re-sorts by release, so the result is
     observationally the same instance — the identity every policy must
     respect byte-for-byte. *)
  for i = Array.length jobs - 1 downto 1 do
    let k = Sched_stats.Rng.int rng (i + 1) in
    let tmp = jobs.(i) in
    jobs.(i) <- jobs.(k);
    jobs.(k) <- tmp
  done;
  let machines = Array.init (Instance.m instance) (Instance.machine instance) in
  Instance.create ~name:instance.Instance.name ~machines ~jobs:(Array.to_list jobs) ()

let relabel_machines ~perm instance =
  let m = Instance.m instance in
  if Array.length perm <> m then invalid_arg "Transform.relabel_machines: wrong permutation length";
  let seen = Array.make m false in
  Array.iter
    (fun i ->
      if i < 0 || i >= m || seen.(i) then
        invalid_arg "Transform.relabel_machines: not a permutation of 0..m-1";
      seen.(i) <- true)
    perm;
  let machines = Array.make m (Instance.machine instance 0) in
  for i = 0 to m - 1 do
    let mc = Instance.machine instance i in
    machines.(perm.(i)) <- Machine.create ~id:perm.(i) ~speed:mc.Machine.speed ~alpha:mc.Machine.alpha ()
  done;
  let jobs =
    Array.to_list (Instance.jobs_by_release instance)
    |> List.map (fun (j : Job.t) ->
           let sizes = Array.make m 0. in
           for i = 0 to m - 1 do
             sizes.(perm.(i)) <- j.Job.sizes.(i)
           done;
           Job.create ~id:j.id ~release:j.release ~weight:j.weight ?deadline:j.deadline ~sizes ())
  in
  Instance.create ~name:(instance.Instance.name ^ "(relabeled)") ~machines ~jobs ()
