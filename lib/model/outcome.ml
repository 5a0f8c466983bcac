type completion = {
  machine : Machine.id;
  start : Time.t;
  speed : float;
  finish : Time.t;
}

type rejection = {
  time : Time.t;
  assigned_to : Machine.id option;
  was_running : bool;
}

type t = Completed of completion | Rejected of rejection

let end_time = function Completed c -> c.finish | Rejected r -> r.time
let flow_time (j : Job.t) t = end_time t -. j.release

let pp ppf = function
  | Completed c ->
      Format.fprintf ppf "completed[m=%d start=%a finish=%a speed=%g]" c.machine Time.pp
        c.start Time.pp c.finish c.speed
  | Rejected r ->
      Format.fprintf ppf "rejected[t=%a%s%s]" Time.pp r.time
        (match r.assigned_to with None -> "" | Some m -> Printf.sprintf " m=%d" m)
        (if r.was_running then " mid-run" else "")
