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

(* Feeds every job, lays every segment in start order, then settles every
   job by its outcome. *)
let violations ?mode t =
  let v = Validator.create ?mode ~machines:(Instance.m t.instance) () in
  for id = 0 to Instance.n t.instance - 1 do
    Validator.feed v (Instance.job t.instance id)
  done;
  List.iter
    (fun s ->
      Validator.lay v ~job:s.job ~machine:s.machine ~start:s.start ~stop:s.stop ~rate:s.speed)
    (List.stable_sort by_start t.segments);
  Array.iteri
    (fun id -> function
      | Outcome.Completed c ->
          Validator.complete v ~job:id ~machine:c.machine ~start:c.start ~finish:c.finish
      | Outcome.Rejected r -> Validator.reject v ~job:id ~time:r.time ~was_running:r.was_running)
    t.outcomes;
  Validator.close v;
  Validator.violations v

let assert_valid ?allow_parallel ?allow_restarts ?check_deadlines t =
  match violations ~mode:(Validator.mode ?allow_parallel ?allow_restarts ?check_deadlines ()) t with
  | [] -> ()
  | vs -> failwith (Format.asprintf "invalid schedule: %a" Violation.pp_list vs)
