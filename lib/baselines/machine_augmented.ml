open Sched_model

let augment ~factor instance =
  if factor < 1 then invalid_arg "Machine_augmented: factor must be >= 1";
  let m = Instance.m instance in
  let machines =
    Array.init (m * factor) (fun i ->
        let original = Instance.machine instance (i mod m) in
        Machine.create ~id:i ~speed:original.Machine.speed ~alpha:original.Machine.alpha ())
  in
  let jobs =
    Array.to_list
      (Array.map
         (fun (j : Job.t) ->
           Job.with_sizes j (Array.init (m * factor) (fun i -> Job.size j (i mod m))))
         (Instance.jobs_by_release instance))
  in
  Instance.create
    ~name:(Printf.sprintf "%s(x%d machines)" instance.Instance.name factor)
    ~machines ~jobs ()
