let symbols = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

let symbol id = symbols.[id mod String.length symbols]

let render ?(width = 72) (s : Schedule.t) =
  if width < 8 then invalid_arg "Gantt.render: width too small";
  let horizon = Metrics.makespan s in
  if horizon <= 0. then "(empty schedule)\n"
  else begin
    let buf = Buffer.create 1024 in
    (* Time scale header. *)
    Buffer.add_string buf (Printf.sprintf "%-4s0%s%.6g\n" "" (String.make (width - 2) ' ') horizon);
    Buffer.add_string buf (Printf.sprintf "%-4s|%s|\n" "" (String.make (width - 2) '-'));
    Array.iteri
      (fun i segs ->
        let row = Bytes.make width '.' in
        for k = 0 to width - 1 do
          let mid = (float_of_int k +. 0.5) /. float_of_int width *. horizon in
          let covering =
            List.filter
              (fun (g : Schedule.segment) -> g.Schedule.start <= mid && mid < g.Schedule.stop)
              segs
          in
          match covering with
          | [] -> ()
          | [ g ] -> Bytes.set row k (symbol g.Schedule.job)
          | _ -> Bytes.set row k '+'
        done;
        Buffer.add_string buf (Printf.sprintf "m%-3d%s\n" i (Bytes.to_string row)))
      (Schedule.segments_by_machine s);
    (* Legend: list jobs in id order, flag rejected ones. *)
    Buffer.add_string buf "legend: ";
    let jobs = Instance.jobs_by_release s.Schedule.instance in
    let sorted = Array.copy jobs in
    Array.sort (fun (a : Job.t) b -> Int.compare a.Job.id b.Job.id) sorted;
    let count = Array.length sorted in
    let shown = min count 16 in
    for k = 0 to shown - 1 do
      let j = sorted.(k) in
      let mark =
        match Schedule.outcome s j.Job.id with
        | Outcome.Rejected _ -> "!"
        | Outcome.Completed _ -> ""
      in
      Buffer.add_string buf (Printf.sprintf "%c=j%d%s " (symbol j.Job.id) j.Job.id mark)
    done;
    if count > shown then Buffer.add_string buf (Printf.sprintf "... (%d jobs)" count);
    Buffer.add_string buf "  ('!' = rejected, '+' = parallel, '.' = idle)\n";
    Buffer.contents buf
  end
