open Sched_model

type assignment = {
  job : Job.id;
  machine : Machine.id;
  start_slot : int;
  duration : int;
  speed : float;
  marginal : float;
}

type result = {
  schedule : Schedule.t;
  assignments : assignment list;
  energy : float;
}

let slot_of_release t =
  let s = Float.round t in
  if Float.abs (t -. s) > 1e-6 then
    invalid_arg (Printf.sprintf "Energy_config_greedy: release/deadline %g not slot-aligned" t);
  int_of_float s

let run ?speeds ?powers instance =
  (match speeds with
  | Some v ->
      if Array.length v = 0 then invalid_arg "Energy_config_greedy.run: empty speed set";
      Array.iter
        (fun s ->
          if s <= 0. || not (Float.is_finite s) then
            invalid_arg "Energy_config_greedy.run: speeds must be positive")
        v
  | None -> ());
  if not (Instance.has_deadlines instance) then
    invalid_arg "Energy_config_greedy.run: every job needs a deadline";
  let m = Instance.m instance in
  let horizon =
    Array.fold_left
      (fun acc (j : Job.t) -> max acc (slot_of_release (Option.get j.deadline)))
      1
      (Instance.jobs_by_release instance)
  in
  (match powers with
  | Some p when Array.length p <> m ->
      invalid_arg "Energy_config_greedy.run: powers length must equal machine count"
  | _ -> ());
  let load = Array.init m (fun _ -> Array.make horizon 0.) in
  let alphas = Array.init m (fun i -> (Instance.machine instance i).Machine.alpha) in
  (* Power drawn at speed s on machine i: s^alpha_i by default, or the
     caller's arbitrary (possibly non-convex) function — Theorem 3 only
     needs (lambda, mu)-smoothness. *)
  let power i s =
    match powers with Some p -> Sched_energy.Power.eval p.(i) s | None -> s ** alphas.(i)
  in
  let builder = Schedule.builder instance in
  let assignments = ref [] in
  let place (j : Job.t) =
    let r = slot_of_release j.release and d = slot_of_release (Option.get j.deadline) in
    if d - r < 1 then invalid_arg (Printf.sprintf "Energy_config_greedy: job %d span < 1 slot" j.id);
    let best = ref None in
    for i = 0 to m - 1 do
      if Job.eligible j i then begin
        let pij = Job.size j i in
        let alpha = alphas.(i) in
        (* Candidate durations: every integer duration by default, or — when
           a discrete speed set V is given, as in the paper's formulation —
           only the durations [ceil(p_ij / v)] induced by V (the job still
           runs at exactly [p_ij / dur], the largest speed <= v that
           finishes precisely at the slot boundary). *)
        let durations =
          match speeds with
          | None -> List.init (d - r) (fun k -> k + 1)
          | Some v -> (
              let induced =
                Array.to_list v
                |> List.filter_map (fun s ->
                       let dur = int_of_float (Float.ceil (pij /. s)) in
                       if dur >= 1 && dur <= d - r then Some dur else None)
                |> List.sort_uniq Int.compare
              in
              (* If even the fastest grid speed cannot finish inside the
                 window, fall back to the fastest feasible execution (one
                 slot per remaining headroom) so the job is never dropped. *)
              match induced with [] -> [ d - r ] | _ -> induced)
        in
        List.iter (fun dur ->
          let v = pij /. float_of_int dur in
          for tau = r to d - dur do
            (* Marginal energy of adding speed v to slots tau..tau+dur-1. *)
            let marginal = ref 0. in
            for t = tau to tau + dur - 1 do
              let u = load.(i).(t) in
              marginal := !marginal +. (power i (u +. v) -. power i u)
            done;
            ignore alpha;
            match !best with
            | Some (_, _, _, _, best_marginal) when best_marginal <= !marginal -> ()
            | _ -> best := Some (i, tau, dur, v, !marginal)
          done)
          durations
      end
    done;
    match !best with
    | None -> assert false (* eligible machine always exists *)
    | Some (i, tau, dur, v, marginal) ->
        for t = tau to tau + dur - 1 do
          load.(i).(t) <- load.(i).(t) +. v
        done;
        let start = float_of_int tau and stop = float_of_int (tau + dur) in
        Schedule.add_segment builder { Schedule.job = j.id; machine = i; start; stop; speed = v };
        Schedule.set_outcome builder j.id
          (Outcome.Completed { machine = i; start; speed = v; finish = stop });
        assignments := { job = j.id; machine = i; start_slot = tau; duration = dur; speed = v; marginal }
                       :: !assignments
  in
  Array.iter place (Instance.jobs_by_release instance);
  let energy = ref 0. in
  for i = 0 to m - 1 do
    for t = 0 to horizon - 1 do
      if load.(i).(t) > 0. then energy := !energy +. power i load.(i).(t)
    done
  done;
  { schedule = Schedule.finalize builder; assignments = List.rev !assignments; energy = !energy }

(* Continuous single-machine variant: the speed profile is a piecewise
   constant function kept as a sorted list of breakpoints. *)

type continuous = {
  alpha : float;
  grid : int;
  mutable breakpoints : (float * float) list;
      (** [(t, s)]: speed is [s] from [t] until the next breakpoint; the
          list is sorted by [t], starts at [(-inf, 0)] conceptually (we keep
          an explicit leading [(neg_infinity, 0.)]). *)
}

let continuous ?(grid = 48) ~alpha () =
  if grid < 2 then invalid_arg "Energy_config_greedy.continuous: grid too small";
  if alpha < 1. then invalid_arg "Energy_config_greedy.continuous: alpha < 1";
  { alpha; grid; breakpoints = [ (Float.neg_infinity, 0.) ] }

(* Integral of f(speed) over [a, b) for the current profile. *)
let integrate profile a b f =
  (* Segments where [f s = 0] contribute nothing and may have infinite
     extent (the leading/trailing zero-speed regions), so skip them before
     forming [hi - lo]. *)
  let rec go acc = function
    | (t0, s) :: (((t1, _) :: _) as rest) ->
        let fs = f s in
        let lo = Float.max a t0 and hi = Float.min b t1 in
        let acc = if fs <> 0. && hi > lo then acc +. ((hi -. lo) *. fs) else acc in
        if t1 >= b then acc else go acc rest
    | [ (t0, s) ] ->
        let fs = f s in
        let lo = Float.max a t0 in
        if fs <> 0. && b > lo then acc +. ((b -. lo) *. fs) else acc
    | [] -> acc
  in
  go 0. profile

let marginal_energy st a b v =
  integrate st.breakpoints a b (fun s -> (((s +. v) ** st.alpha) -. (s ** st.alpha)))

(* Add speed v on [a, b): split breakpoints at a and b, then raise. *)
let add_load st a b v =
  let split at bps =
    let rec go acc = function
      | (t0, s) :: (((t1, _) :: _) as rest) when t0 < at && at < t1 ->
          List.rev_append acc ((t0, s) :: (at, s) :: rest)
      | [ (t0, s) ] when t0 < at -> List.rev_append acc [ (t0, s); (at, s) ]
      | x :: rest -> go (x :: acc) rest
      | [] -> List.rev acc
    in
    go [] bps
  in
  let bps = split a (split b st.breakpoints) in
  st.breakpoints <-
    List.map (fun (t, s) -> if t >= a && t < b then (t, s +. v) else (t, s)) bps

let continuous_place st ~release ~deadline ~volume =
  if deadline <= release then invalid_arg "continuous_place: empty span";
  if volume <= 0. then invalid_arg "continuous_place: non-positive volume";
  let span = deadline -. release in
  let g = st.grid in
  let best = ref None in
  for kd = 1 to g do
    let dur = span *. float_of_int kd /. float_of_int g in
    let v = volume /. dur in
    let slack = span -. dur in
    for ks = 0 to g do
      let start = release +. (slack *. float_of_int ks /. float_of_int g) in
      let marginal = marginal_energy st start (start +. dur) v in
      match !best with
      | Some (_, _, _, bm) when bm <= marginal -> ()
      | _ -> best := Some (start, dur, v, marginal)
    done
  done;
  match !best with
  | None -> assert false
  | Some (start, dur, v, _) ->
      add_load st start (start +. dur) v;
      (start, v)
