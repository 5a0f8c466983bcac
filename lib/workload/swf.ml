open Sched_model

let example =
  "; Example SWF trace (synthetic)\n\
   ; UnixStartTime: 0\n\
   ; MaxNodes: 64\n\
   1 0 2 120 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n\
   2 30 1 60 1 -1 -1 1 -1 -1 1 1 1 1 1 -1 -1 -1\n\
   3 45 5 600 8 -1 -1 8 -1 -1 1 2 1 1 1 -1 -1 -1\n\
   4 60 0 30 1 -1 -1 1 -1 -1 1 1 1 1 1 -1 -1 -1\n\
   5 90 3 -1 2 -1 -1 2 -1 -1 0 3 1 1 1 -1 -1 -1\n\
   6 120 1 240 2 -1 -1 2 -1 -1 1 1 1 1 1 -1 -1 -1\n\
   7 150 2 45 1 -1 -1 1 -1 -1 1 2 1 1 1 -1 -1 -1\n\
   8 180 4 900 16 -1 -1 16 -1 -1 1 4 1 1 1 -1 -1 -1\n\
   9 200 1 15 1 -1 -1 1 -1 -1 1 1 1 1 1 -1 -1 -1\n"

type raw = { submit : float; runtime : float; procs : float }

let parse_line lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = ';' then Ok None
  else begin
    let fields = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
    if List.length fields < 5 then
      Error (Printf.sprintf "line %d: expected >= 5 SWF fields, got %d" lineno (List.length fields))
    else begin
      let field k = List.nth fields k in
      match
        (float_of_string_opt (field 1), float_of_string_opt (field 3), float_of_string_opt (field 4))
      with
      | Some submit, Some runtime, Some procs ->
          if runtime <= 0. then Ok None (* missing/cancelled job: skip *)
          else Ok (Some { submit; runtime; procs = Float.max 1. procs })
      | _ -> Error (Printf.sprintf "line %d: malformed numeric fields" lineno)
    end
  end

let parse ?max_jobs ?(m = 4) ?shape ?rng text =
  let shape = match shape with Some s -> s | None -> Shape.identical in
  let rng = match rng with Some r -> r | None -> Sched_stats.Rng.create 1 in
  let lines = String.split_on_char '\n' text in
  let rec collect lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line with
        | Error e -> Error e
        | Ok None -> collect (lineno + 1) acc rest
        | Ok (Some raw) -> collect (lineno + 1) (raw :: acc) rest)
  in
  match collect 1 [] lines with
  | Error e -> Error e
  | Ok [] -> Error "no usable jobs in trace"
  | Ok raws ->
      let raws =
        match max_jobs with
        | Some k -> List.filteri (fun i _ -> i < k) raws
        | None -> raws
      in
      let base_time =
        List.fold_left (fun acc r -> Float.min acc r.submit) Float.infinity raws
      in
      (* One size vector, refilled for every job: [Job.create] copies it. *)
      let sizes = Array.make m 0. in
      let jobs =
        List.mapi
          (fun id r ->
            (* Serial-machine model: total demand runtime * procs spread
               over the fleet. *)
            let base = r.runtime *. r.procs /. float_of_int m in
            Shape.fill shape rng ~base sizes;
            Job.create ~id ~release:(r.submit -. base_time) ~sizes ())
          raws
      in
      (try Ok (Instance.create ~name:"swf-trace" ~machines:(Machine.fleet m) ~jobs ())
       with Invalid_argument msg -> Error msg)

let load ~path ?max_jobs ?m ?shape () =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse ?max_jobs ?m ?shape text
  | exception Sys_error msg -> Error msg
