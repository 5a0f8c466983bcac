open Sched_model

type bound = { value : float; source : string }

(* [sum_j min_i p_ij / s_i] as plain [<] scans: sizes are positive and
   never NaN and speeds positive and finite, so every quotient is a
   positive non-NaN, an ineligible machine's is [infinity] and never
   wins, and the sum has the bits of the [Float.min] fold over eligible
   machines.  On a fleet of one speed [s] no job is scanned: rounding is
   monotone, so [min_i fl(p_ij / s) = fl((min_i p_ij) / s)], and
   [Job.min_size] (O(1), its leftmost minimal machine's size) gives the
   same bits. *)
let volume instance =
  let machines = instance.Instance.machines in
  let jobs = Instance.jobs_by_release instance in
  let s = machines.(0).Machine.speed in
  let total = ref 0. in
  if Array.for_all (fun (mc : Machine.t) -> Float.equal mc.Machine.speed s) machines then
    for k = 0 to Array.length jobs - 1 do
      total := !total +. (Job.min_size jobs.(k) /. s)
    done
  else begin
    let speeds = Array.map (fun (mc : Machine.t) -> mc.Machine.speed) machines in
    for k = 0 to Array.length jobs - 1 do
      let sizes = jobs.(k).Job.sizes in
      let mn = ref Float.infinity in
      for i = 0 to Array.length sizes - 1 do
        let q = sizes.(i) /. speeds.(i) in
        if q < !mn then mn := q
      done;
      total := !total +. !mn
    done
  end;
  { value = !total; source = "volume" }

let srpt instance =
  if Instance.m instance = 1 then
    Some { value = Srpt_single.total_flow instance; source = "srpt" }
  else None

let lp ?max_variables instance =
  match Sched_lp.Flow_lp.solve ?max_variables instance with
  | Some sol -> Some { value = sol.Sched_lp.Flow_lp.opt_lower_bound; source = "lp/2" }
  | None -> None

let brute ?max_n instance =
  match Brute_force.optimal_flow ?max_n instance with
  | Some v -> Some { value = v; source = "opt" }
  | None -> None

let best_flow ?lp_max_variables ?brute_max_n instance =
  let candidates =
    [ Some (volume instance); srpt instance ]
    @ [ brute ?max_n:brute_max_n instance ]
    @ [ lp ?max_variables:lp_max_variables instance ]
  in
  List.fold_left
    (fun acc c ->
      match c with Some b when b.value > acc.value -> b | _ -> acc)
    { value = 0.; source = "none" }
    candidates
