open Sched_model
open Sched_sim

type report = {
  eps : float;
  lambda_sum : float;
  beta_integral : float;
  dual_objective : float;
  ctilde_sum : float;
  algo_flow : float;
  min_constraint_slack : float;
  min_slack_dispatch_machine : float;
  counterfactual_quantum : float;
  worst_constraint : int * int * float;
  constraints_checked : int;
  primal_over_dual : float;
  corollary1_max_ratio : float;
}

(* Replay state per machine. *)
type mstate = {
  mutable running : Job.id option;
  mutable active : Job.id list;  (** U_i: dispatched, not settled. *)
}

let certify ~eps ~lambdas instance trace schedule =
  let n = Instance.n instance and m = Instance.m instance in
  let ms = Array.init m (fun _ -> { running = None; active = [] }) in
  let ext = Array.make n 0. in
  let ctilde = Array.make n Float.nan in
  (* Per machine, the +/-1 change points of |U_i(t)| + |V_i(t)|:
     +1 at dispatch, -1 at the definitive finish C~_j. *)
  let changes = Array.make m [] in
  (* For the Corollary 1 invariant: |U_i(t)| changes and |R_i(t)| changes
     (Rule-2 rejected, not yet definitively finished). *)
  let u_changes = Array.make m [] in
  let r2_changes = Array.make m [] in
  let size jid i = Job.size (Instance.job instance jid) i in
  List.iter
    (fun ({ time; event } : Trace.entry) ->
      match event with
      | Trace.Dispatch { job; machine } ->
          let s = ms.(machine) in
          s.active <- job :: s.active;
          changes.(machine) <- (time, 1) :: changes.(machine);
          u_changes.(machine) <- (time, 1) :: u_changes.(machine)
      | Trace.Start { job; machine; _ } -> ms.(machine).running <- Some job
      | Trace.Complete { job; machine } ->
          let s = ms.(machine) in
          s.running <- None;
          s.active <- List.filter (fun j -> j <> job) s.active;
          ctilde.(job) <- time +. ext.(job);
          changes.(machine) <- (ctilde.(job), -1) :: changes.(machine);
          u_changes.(machine) <- (time, -1) :: u_changes.(machine)
      | Trace.Reject { job; machine; remaining; _ } ->
          let s = ms.(machine) in
          let rule1 = s.running = Some job in
          u_changes.(machine) <- (time, -1) :: u_changes.(machine);
          if rule1 then begin
            (* Rule 1: every job alive on this machine (the victim included)
               inherits the victim's remaining volume in its C~. *)
            List.iter (fun j -> ext.(j) <- ext.(j) +. remaining) s.active;
            s.running <- None;
            s.active <- List.filter (fun j -> j <> job) s.active;
            ctilde.(job) <- time +. ext.(job)
          end
          else begin
            (* Rule 2: the victim's C~ extends to its estimated completion
               had it stayed: remaining of the running job, plus the sizes
               of the other pending jobs (the just-released trigger
               excluded), plus its own size.  The trigger is the most
               recently dispatched job, i.e. the head of [active]. *)
            let trigger = match s.active with j :: _ -> Some j | [] -> None in
            let rem_running =
              match s.running with
              | None -> 0.
              | Some k ->
                  (* Remaining volume of the running job at this instant is
                     not in the event; recover it from the schedule: the
                     running job's segment tells its rate and end. *)
                  (match Schedule.outcome schedule k with
                  | Outcome.Completed c -> Float.max 0. ((c.finish -. time) *. c.speed)
                  | Outcome.Rejected _ -> (
                      (* It will be rejected later; use its segment. *)
                      match
                        List.find_opt
                          (fun (g : Schedule.segment) -> g.job = k)
                          schedule.Schedule.segments
                      with
                      | Some g -> Float.max 0. ((g.stop -. time) *. g.speed)
                      | None -> 0.))
            in
            let others =
              List.fold_left
                (fun acc j ->
                  if Some j = trigger || j = job || ms.(machine).running = Some j then acc
                  else acc +. size j machine)
                0. s.active
            in
            s.active <- List.filter (fun j -> j <> job) s.active;
            ctilde.(job) <- time +. ext.(job) +. rem_running +. others +. size job machine;
            r2_changes.(machine) <-
              (ctilde.(job), -1) :: (time, 1) :: r2_changes.(machine)
          end;
          changes.(machine) <- (ctilde.(job), -1) :: changes.(machine)
      | Trace.Restart _ ->
          invalid_arg "Dual_fit: the Theorem 1 analysis does not cover restarts")
    (Trace.events trace);
  (* Any job still active at the end of the trace never settled — that
     cannot happen for a completed run. *)
  Array.iteri
    (fun j c ->
      if Float.is_nan c then invalid_arg (Printf.sprintf "Dual_fit: job %d never settled" j))
    ctilde;
  let beta_coeff = eps /. ((1. +. eps) ** 2.) in
  (* Build each machine's |U|+|V| step function and integrate. *)
  let machine_of = Array.make n (-1) in
  List.iter
    (fun ({ event; _ } : Trace.entry) ->
      match event with
      | Trace.Dispatch { job; machine } -> machine_of.(job) <- machine
      | _ -> ())
    (Trace.events trace);
  let beta_integral = ref 0. in
  let min_slack = ref Float.infinity in
  let min_slack_dispatch = ref Float.infinity in
  let worst = ref (-1, -1, Float.nan) in
  let checked = ref 0 in
  let steps_per_machine =
    Array.map
      (fun chs ->
        let sorted =
          List.sort
            (fun (a, da) (b, db) ->
              match Float.compare a b with 0 -> Int.compare db da | c -> c)
            chs
        in
        (* Fold into (time, count-after) steps. *)
        let steps = ref [] and count = ref 0 in
        List.iter
          (fun (t, d) ->
            count := !count + d;
            steps := (t, !count) :: !steps)
          sorted;
        List.rev !steps)
      changes
  in
  Array.iter
    (fun steps ->
      let rec integrate = function
        | (t0, c0) :: (((t1, _) :: _) as rest) ->
            beta_integral := !beta_integral +. (float_of_int c0 *. (t1 -. t0));
            integrate rest
        | _ -> ()
      in
      integrate steps)
    steps_per_machine;
  let beta_integral = beta_coeff *. !beta_integral in
  (* Dual feasibility: for each (i, j), the slack
     (t - r_j)/p_ij + 1 + beta_i(t) - lambda_j/p_ij
     is piecewise increasing in t between beta breakpoints, so its minimum
     over t >= r_j is attained at r_j or at a breakpoint. *)
  let jobs = Instance.jobs_by_release instance in
  for i = 0 to m - 1 do
    let steps = steps_per_machine.(i) in
    let beta_at t =
      (* Step value at time t (rightmost step with time <= t). *)
      let rec go acc = function
        | (t0, c) :: rest -> if t0 <= t +. 1e-12 then go c rest else acc
        | [] -> acc
      in
      beta_coeff *. float_of_int (go 0 steps)
    in
    Array.iter
      (fun (j : Job.t) ->
        if Job.eligible j i then begin
          let pij = Job.size j i in
          let lhs = lambdas.(j.id) /. pij in
          let check t =
            if t >= j.release -. 1e-12 then begin
              let slack = ((t -. j.release) /. pij) +. 1. +. beta_at t -. lhs in
              incr checked;
              if slack < !min_slack then begin
                min_slack := slack;
                worst := (i, j.id, t)
              end;
              if machine_of.(j.id) = i && slack < !min_slack_dispatch then
                min_slack_dispatch := slack
            end
          in
          check j.release;
          List.iter (fun (t, _) -> check (Float.max t j.release)) steps
        end)
      jobs
  done;
  (* Corollary 1: sweep |U_i| and |R_i| together; evaluate the ratio after
     applying every change at a given instant. *)
  let corollary1_max_ratio = ref 0. in
  for i = 0 to m - 1 do
    let events =
      List.map (fun (t, d) -> (t, `U d)) u_changes.(i)
      @ List.map (fun (t, d) -> (t, `R d)) r2_changes.(i)
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    in
    let u = ref 0 and r = ref 0 in
    let rec sweep = function
      | [] -> ()
      | (t, change) :: rest ->
          (match change with `U d -> u := !u + d | `R d -> r := !r + d);
          (match rest with
          | (t', _) :: _ when t' = t -> ()
          | _ ->
              let ratio = float_of_int !u /. float_of_int (!r + 1) in
              if ratio > !corollary1_max_ratio then corollary1_max_ratio := ratio);
          sweep rest
    in
    sweep events
  done;
  let lambda_sum = Array.fold_left ( +. ) 0. lambdas in
  let ctilde_sum =
    Array.fold_left
      (fun acc (j : Job.t) -> acc +. (ctilde.(j.id) -. j.release))
      0. jobs
  in
  let algo_flow = (Metrics.flow schedule).Metrics.total_with_rejected in
  let dual_objective = lambda_sum -. beta_integral in
  {
    eps;
    lambda_sum;
    beta_integral;
    dual_objective;
    ctilde_sum;
    algo_flow;
    min_constraint_slack = !min_slack;
    min_slack_dispatch_machine = !min_slack_dispatch;
    counterfactual_quantum = beta_coeff;
    worst_constraint = !worst;
    constraints_checked = !checked;
    primal_over_dual = (if dual_objective > 0. then algo_flow /. dual_objective else Float.infinity);
    corollary1_max_ratio = !corollary1_max_ratio;
  }
