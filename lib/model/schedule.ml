type segment = {
  job : Job.id;
  machine : Machine.id;
  start : Time.t;
  stop : Time.t;
  speed : float;
}

type t = {
  instance : Instance.t;
  outcomes : Outcome.t array;
  segments : segment list;
}

type builder = {
  b_instance : Instance.t;
  b_outcomes : Outcome.t option array;
  mutable b_segments : segment list;
}

let builder instance =
  {
    b_instance = instance;
    b_outcomes = Array.make (Instance.n instance) None;
    b_segments = [];
  }

let add_segment b seg = b.b_segments <- seg :: b.b_segments

let set_outcome b id outcome =
  if id < 0 || id >= Array.length b.b_outcomes then
    invalid_arg (Printf.sprintf "Schedule.set_outcome: bad job id %d" id);
  match b.b_outcomes.(id) with
  | Some _ -> invalid_arg (Printf.sprintf "Schedule.set_outcome: job %d already decided" id)
  | None -> b.b_outcomes.(id) <- Some outcome

let finalize b =
  let outcomes =
    Array.mapi
      (fun id o ->
        match o with
        | Some o -> o
        | None -> invalid_arg (Printf.sprintf "Schedule.finalize: job %d has no outcome" id))
      b.b_outcomes
  in
  { instance = b.b_instance; outcomes; segments = List.rev b.b_segments }

let outcome t id = t.outcomes.(id)

let by_start a b = match Float.compare a.start b.start with 0 -> Int.compare a.job b.job | c -> c

let segments_of_machine t m = List.filter (fun s -> s.machine = m) t.segments |> List.sort by_start

(* One pass buckets the segments by machine, each bucket in list order,
   so every bucket sorts to exactly what [segments_of_machine] returns:
   O(S log S) for the whole fleet instead of a filter of the whole list
   per machine.  Segments on a machine outside the fleet are left out. *)
let segments_by_machine t =
  let m = Instance.m t.instance in
  let buckets = Array.make m [] in
  List.iter
    (fun s ->
      if s.machine >= 0 && s.machine < m then buckets.(s.machine) <- s :: buckets.(s.machine))
    t.segments;
  Array.map (fun segs -> List.sort by_start (List.rev segs)) buckets

(* Relative tolerance for volume/size comparisons: simulation arithmetic is
   a handful of float operations, so 1e-6 relative slack is ample. *)
let vol_close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max a b)

let validate ?(allow_parallel = false) ?(allow_restarts = false) ?check_deadlines t =
  let check_deadlines =
    match check_deadlines with Some b -> b | None -> Instance.has_deadlines t.instance
  in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let m = Instance.m t.instance in
  (* Per-segment sanity. *)
  List.iter
    (fun s ->
      if s.machine < 0 || s.machine >= m then err "segment of job %d on bad machine %d" s.job s.machine;
      if not (Time.lt s.start s.stop) then
        err "segment of job %d has start %g >= stop %g" s.job s.start s.stop;
      if s.speed <= 0. then err "segment of job %d has non-positive speed" s.job;
      let j = Instance.job t.instance s.job in
      if Time.lt s.start j.release then
        err "job %d starts at %g before release %g" s.job s.start j.release)
    t.segments;
  (* Machine-level non-overlap. *)
  if not allow_parallel then
    Array.iteri
      (fun i segs ->
        let rec check = function
          | a :: (b :: _ as rest) ->
              if Time.gt a.stop b.start then
                err "machine %d: job %d segment [%g,%g] overlaps job %d at %g" i a.job a.start
                  a.stop b.job b.start;
              check rest
          | _ -> ()
        in
        check segs)
      (segments_by_machine t);
  (* Per-job outcome consistency; bucket segments by job once so the whole
     pass is linear in the segment count. *)
  let by_job = Array.make (Instance.n t.instance) [] in
  List.iter
    (fun s ->
      if s.job >= 0 && s.job < Array.length by_job then
        by_job.(s.job) <- s :: by_job.(s.job)
      else err "segment references unknown job %d" s.job)
    t.segments;
  Array.iter
    (fun (j : Job.t) ->
      let segs = List.rev by_job.(j.id) in
      match t.outcomes.(j.id) with
      | Outcome.Completed c -> begin
          let sorted = List.sort by_start segs in
          let check_final s =
            if s.machine <> c.machine then
              err "job %d completed on machine %d but segment is on %d" j.id c.machine
                s.machine;
            if not (Time.equal s.start c.start && Time.equal s.stop c.finish) then
              err "job %d segment [%g,%g] mismatches outcome [%g,%g]" j.id s.start s.stop
                c.start c.finish;
            let volume = (s.stop -. s.start) *. s.speed in
            if not (vol_close volume (Job.size j s.machine)) then
              err "job %d processed volume %g but size is %g on machine %d" j.id volume
                (Job.size j s.machine) s.machine;
            if check_deadlines then begin
              match j.deadline with
              | Some d when Time.gt c.finish d ->
                  err "job %d finishes at %g after deadline %g" j.id c.finish d
              | _ -> ()
            end
          in
          let check_aborted s =
            (* A killed attempt: strictly partial work, over before the
               final execution began. *)
            let volume = (s.stop -. s.start) *. s.speed in
            if volume >= Job.size j s.machine -. 1e-9 then
              err "job %d restarted after processing its full size" j.id;
            if Time.gt s.stop c.start then
              err "job %d has an aborted attempt [%g,%g] overlapping its final run" j.id
                s.start s.stop
          in
          match (sorted, allow_restarts) with
          | [ s ], _ -> check_final s
          | [], _ -> err "job %d completed but has no segment" j.id
          | segs, true ->
              let rec split = function
                | [ last ] -> check_final last
                | s :: rest ->
                    check_aborted s;
                    split rest
                | [] -> ()
              in
              split segs
          | segs, false ->
              err "job %d completed but has %d segments (preempted?)" j.id (List.length segs)
        end
      | Outcome.Rejected r -> begin
          if Time.lt r.time j.release then
            err "job %d rejected at %g before release %g" j.id r.time j.release;
          let check_partial s =
            if Time.gt s.stop r.time then
              err "job %d partial segment ends %g after rejection %g" j.id s.stop r.time;
            let volume = (s.stop -. s.start) *. s.speed in
            if volume >= Job.size j s.machine -. 1e-9 then
              err "job %d rejected after processing full size" j.id
          in
          match segs with
          | [] ->
              if r.was_running then err "job %d rejected mid-run but has no segment" j.id
          | [ s ] ->
              if not (r.was_running || allow_restarts) then
                err "job %d has a segment but was not running" j.id;
              check_partial s
          | segs when allow_restarts -> List.iter check_partial segs
          | segs -> err "job %d rejected but has %d segments" j.id (List.length segs)
        end)
    (Instance.jobs_by_release t.instance);
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let assert_valid ?allow_parallel ?allow_restarts ?check_deadlines t =
  match validate ?allow_parallel ?allow_restarts ?check_deadlines t with
  | Ok () -> ()
  | Error es ->
      failwith
        (Printf.sprintf "invalid schedule (%d violations):\n%s" (List.length es)
           (String.concat "\n" es))
