open Sched_model

let fleet ~eps_s machines =
  if eps_s <= 0. then invalid_arg "Speed_augmented: eps_s must be positive";
  let factor = 1. +. eps_s in
  Array.map (fun (mc : Machine.t) -> Machine.with_speed mc (mc.Machine.speed *. factor)) machines

let policy ~eps_r =
  Rejection.Flow_reject.policy (Rejection.Flow_reject.config ~rule2:false ~eps:eps_r ())

let run ?trace ?obs ~eps_s ~eps_r instance =
  let machines = fleet ~eps_s instance.Instance.machines in
  let fast =
    Instance.create
      ~name:(Printf.sprintf "%s(+speed %g)" instance.Instance.name (1. +. eps_s))
      ~machines ~jobs:(Array.to_list (Instance.jobs_by_release instance)) ()
  in
  let schedule, _, _ = Sched_sim.Driver.run ?trace ?obs (policy ~eps_r) fast in
  schedule
