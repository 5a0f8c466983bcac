open Sched_model
open Sched_sim

type report = {
  eps : float;
  alpha : float;
  lambda_sum : float;
  u_alpha_integral : float;
  dual_objective : float;
  primal : float;
  min_constraint_slack : float;
  constraints_checked : int;
  primal_over_dual : float;
}

(* Per-job record on its machine, for evaluating V_i(t). *)
type jrec = {
  job : Job.t;
  size : float;  (** p_ij on its machine. *)
  dispatched : float;  (** = release. *)
  ctilde : float;
  exec : (float * float * float) option;  (** start, stop, rate. *)
  final_rem : float;  (** Remaining volume after the job left U_i (0 when
                          completed, the frozen remainder when rejected). *)
}

(* Remaining volume of a job at time t. *)
let remaining_at r t =
  if t < r.dispatched then r.size
  else begin
    match r.exec with
    | None -> if t < r.ctilde then r.size else r.final_rem
    | Some (start, stop, rate) ->
        if t < start then r.size
        else if t < stop then r.size -. (rate *. (t -. start))
        else r.final_rem
  end

(* V_i(t): total fractional weight of jobs alive (dispatched, not yet
   definitively finished) at t. *)
let v_at jobs t =
  List.fold_left
    (fun acc r ->
      if r.dispatched <= t && t < r.ctilde then
        acc +. (r.job.Job.weight *. Float.max 0. (remaining_at r t) /. r.size)
      else acc)
    0. jobs

let certify ~eps ~gammas ~lambdas instance trace schedule =
  let m = Instance.m instance in
  let n = Instance.n instance in
  (* Replay: running speed per machine, active set, extension accumulators. *)
  let running_rate = Array.make m 0. in
  let running_job = Array.make m (-1) in
  let active : Job.id list array = Array.make m [] in
  let ext = Array.make n 0. in
  let ctilde = Array.make n Float.nan in
  let final_rem = Array.make n 0. in
  List.iter
    (fun ({ time; event } : Trace.entry) ->
      match event with
      | Trace.Dispatch { job; machine } -> active.(machine) <- job :: active.(machine)
      | Trace.Start { job; machine; speed } ->
          running_rate.(machine) <- speed;
          running_job.(machine) <- job
      | Trace.Complete { job; machine } ->
          active.(machine) <- List.filter (fun x -> x <> job) active.(machine);
          if running_job.(machine) = job then running_job.(machine) <- -1;
          ctilde.(job) <- time +. ext.(job);
          final_rem.(job) <- 0.
      | Trace.Reject { job; machine; remaining; _ } ->
          (* Theorem 2 rejections interrupt the running job; its remaining
             processing time is remaining volume over its rate. *)
          let rate = if running_job.(machine) = job then running_rate.(machine) else 0. in
          let extension = if rate > 0. then remaining /. rate else 0. in
          List.iter (fun x -> ext.(x) <- ext.(x) +. extension) active.(machine);
          active.(machine) <- List.filter (fun x -> x <> job) active.(machine);
          if running_job.(machine) = job then running_job.(machine) <- -1;
          ctilde.(job) <- time +. ext.(job);
          final_rem.(job) <- remaining
      | Trace.Restart _ ->
          invalid_arg "Dual_fit_energy: the Theorem 2 analysis does not cover restarts")
    (Trace.events trace);
  Array.iteri
    (fun j c ->
      if Float.is_nan c then
        invalid_arg (Printf.sprintf "Dual_fit_energy: job %d never settled" j))
    ctilde;
  (* Assemble per-machine job records. *)
  let machine_of = Array.make n (-1) in
  List.iter
    (fun ({ event; _ } : Trace.entry) ->
      match event with
      | Trace.Dispatch { job; machine } -> machine_of.(job) <- machine
      | _ -> ())
    (Trace.events trace);
  let exec_of = Array.make n None in
  List.iter
    (fun (g : Schedule.segment) ->
      exec_of.(g.Schedule.job) <- Some (g.Schedule.start, g.Schedule.stop, g.Schedule.speed))
    schedule.Schedule.segments;
  let per_machine = Array.make m [] in
  Array.iter
    (fun (j : Job.t) ->
      let i = machine_of.(j.Job.id) in
      if i >= 0 then
        per_machine.(i) <-
          {
            job = j;
            size = Job.size j i;
            dispatched = j.Job.release;
            ctilde = ctilde.(j.Job.id);
            exec = exec_of.(j.Job.id);
            final_rem = final_rem.(j.Job.id);
          }
          :: per_machine.(i))
    (Instance.jobs_by_release instance);
  (* Sample points per machine: all breakpoints of V_i plus interior
     subdivisions. *)
  let sample_points jobs =
    let base =
      List.concat_map
        (fun r ->
          [ r.dispatched; r.ctilde ]
          @ (match r.exec with Some (a, b, _) -> [ a; b ] | None -> []))
        jobs
      |> List.sort_uniq Float.compare
    in
    let rec subdivide acc = function
      | a :: (b :: _ as rest) ->
          let acc = ref acc in
          for k = 0 to 7 do
            acc := (a +. ((b -. a) *. float_of_int k /. 8.)) :: !acc
          done;
          subdivide !acc rest
      | [ last ] -> last :: acc
      | [] -> acc
    in
    List.sort_uniq Float.compare (subdivide [] base)
  in
  (* Constants. *)
  let alphas = Array.init m (fun i -> (Instance.machine instance i).Machine.alpha) in
  let u_coeff i =
    let alpha = alphas.(i) in
    (eps /. (gammas.(i) *. (1. +. eps) *. (alpha -. 1.))) ** (1. /. (alpha -. 1.))
  in
  (* Dual feasibility. *)
  let min_slack = ref Float.infinity in
  let checked = ref 0 in
  let jobs_all = Instance.jobs_by_release instance in
  for i = 0 to m - 1 do
    let alpha = alphas.(i) in
    let gamma = gammas.(i) in
    let cu = u_coeff i in
    let points = sample_points per_machine.(i) in
    let v_cache = List.map (fun t -> (t, v_at per_machine.(i) t)) points in
    Array.iter
      (fun (j : Job.t) ->
        if Job.eligible j i then begin
          let pij = Job.size j i in
          let delta_ij = j.Job.weight /. pij in
          let lhs = lambdas.(j.Job.id) /. pij in
          let constant_term =
            alpha /. (gamma *. (alpha -. 1.)) *. (j.Job.weight ** ((alpha -. 1.) /. alpha))
          in
          let check t v =
            if t >= j.Job.release -. 1e-12 then begin
              let u = cu *. (Float.max 0. v ** (1. /. alpha)) in
              let slack =
                (delta_ij *. (t -. j.Job.release +. pij))
                +. (alpha *. (u ** (alpha -. 1.)))
                +. constant_term -. lhs
              in
              incr checked;
              if slack < !min_slack then min_slack := slack
            end
          in
          (* At the release instant and at every sampled point after it. *)
          check j.Job.release (v_at per_machine.(i) j.Job.release);
          List.iter (fun (t, v) -> check t v) v_cache
        end)
      jobs_all
  done;
  (* Dual objective: u^alpha is linear in V, and V is piecewise linear, so
     integrate V exactly by trapezoid between consecutive breakpoints
     (subdivision points included, making kinks harmless). *)
  let u_alpha_integral = ref 0. in
  for i = 0 to m - 1 do
    let cu = u_coeff i in
    let scale = cu ** alphas.(i) in
    let points = sample_points per_machine.(i) in
    let rec integrate = function
      | a :: (b :: _ as rest) ->
          let va = v_at per_machine.(i) a and vb = v_at per_machine.(i) (b -. 1e-12) in
          u_alpha_integral := !u_alpha_integral +. (scale *. (va +. vb) /. 2. *. (b -. a));
          integrate rest
      | _ -> ()
    in
    integrate points
  done;
  let lambda_sum = Array.fold_left ( +. ) 0. lambdas in
  let alpha0 = alphas.(0) in
  let dual_objective = lambda_sum -. ((alpha0 -. 1.) *. !u_alpha_integral) in
  let flow = Metrics.flow schedule in
  let primal = flow.Metrics.weighted_with_rejected +. Metrics.energy schedule in
  {
    eps;
    alpha = alpha0;
    lambda_sum;
    u_alpha_integral = !u_alpha_integral;
    dual_objective;
    primal;
    min_constraint_slack = !min_slack;
    constraints_checked = !checked;
    primal_over_dual = (if dual_objective > 0. then primal /. dual_objective else Float.infinity);
  }
