(* The layer-ladder benchmark: end-to-end workloads through the shipped
   binaries, plus a traced run that times each layer of the library.

   End-to-end mode (the default, or [--trace 0]) drives only
   [rejsched serve] and [rejsched run], one child process at a time, on
   inputs generated from [--seed].  Every decision stream is compared
   line by line with the batch reference that [rejsched run ...
   --trace-ndjson] writes for the same jobs, so a mismatch anywhere fails
   the run.  Layer mode ([--trace 1], or [--layers] for every workload)
   calls each layer's public functions from outside the library -- the
   event heap, the flat core with a trivial policy, flow-reject, the
   recorder, the telemetry handle, the chunked session, NDJSON parsing,
   decision export and checkpoints -- and runs a span-traced in-process
   replica of the workload's command.

   Run from the repository root, where it finds BENCHMARK.json and
   _build/default/bin/rejsched.exe (bench/ladder/run.sh builds both):
     ladder.exe [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
                [--layers] [--quick] [--out FILE]
     ladder.exe compare A.json B.json
   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  README.md in this directory
   lists the workloads and metrics. *)

module D = Sched_sim.Driver
module N = Sched_obs.Ndjson
module PR = Sched_experiments.Policy_registry
module FR = Rejection.Flow_reject
module Job = Sched_model.Job
module Instance = Sched_model.Instance
module Machine = Sched_model.Machine
module Metrics = Sched_model.Metrics
module Trace = Sched_sim.Trace

let eps = PR.eps
let eps_arg = Printf.sprintf "%g" eps

(* The registry entry [rejsched serve -p flow-reject] runs; [rejsched run
   -p thm1 --eps 0.3] makes the same decisions. *)
let flow_reject =
  match PR.find "flow-reject" with Some e -> e | None -> failwith "no flow-reject registry entry"

let policy () = FR.policy (FR.config ~eps ())
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let k = Array.length a in
  if k = 0 then nan else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank percentile of a sorted, non-empty array. *)
let percentile a q =
  let k = Array.length a in
  a.(max 0 (min (k - 1) (int_of_float (Float.ceil (q *. float_of_int k)) - 1)))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type shape = Uniform | Burst

type mode =
  | Serve of int  (** [serve --batch N --input FILE], as fast as it goes *)
  | Paced of float  (** arrivals piped to [serve --batch 1] at this many per second *)
  | Split  (** [serve --checkpoint] over the first half, [serve --restore] over the rest *)
  | Batch  (** [rejsched run]: no NDJSON at all *)

type workload = { name : string; shape : shape; n : int; m : int; mode : mode }

(* Why each workload is here is recorded in BENCHMARK.json and README.md:
   I/O-bound serving, deep-queue policy cost, time-to-decision below
   saturation, the many-machine batch path, and checkpoint/restore.
   Uniform arrivals are a Poisson stream drawn in order, so serve-paced's
   arrivals are the first quarter of serve-uniform's and serve-checkpoint's.
   serve-paced offers 10,000 arrivals/s: at 20,000/s, a slow stretch of a
   shared host pushed serve to saturation, and one run of ten read a
   median decision time of 4.7 ms against 80-110 us for the others. *)
let all_workloads =
  [
    { name = "serve-uniform"; shape = Uniform; n = 50_000; m = 16; mode = Serve 1 };
    { name = "serve-burst"; shape = Burst; n = 20_000; m = 8; mode = Serve 64 };
    { name = "serve-paced"; shape = Uniform; n = 12_500; m = 16; mode = Paced 10_000. };
    { name = "run-cluster"; shape = Uniform; n = 20_000; m = 512; mode = Batch };
    { name = "serve-checkpoint"; shape = Uniform; n = 50_000; m = 16; mode = Split };
  ]

(* --quick runs every workload at a twentieth of its size. *)
let quick_div = 20

let batch_of w = match w.mode with Serve b -> b | Paced _ | Split -> 1 | Batch -> w.n

(* serve-burst's overloaded instance: releases in [0, n/32), so pending
   queues grow to Theta(n/m) and flow-reject's lambda scan dominates.
   Every value is a multiple of 1/4, so float accumulations are exact.
   The jobs are bench/main.ml's, renumbered in arrival order as a service
   numbers what it is sent: with ids drawn out of release order, the
   session's job columns grow to a capacity set by which ids come first,
   and that alone spread serve's peak RSS by 8% between seeds (1% once
   renumbered). *)
let burst_instance ~n ~m ~seed =
  let rng = Sched_stats.Rng.create seed in
  let quarters lo count = lo +. (0.25 *. float_of_int (Sched_stats.Rng.int rng count)) in
  let drawn =
    List.init n (fun id ->
        let release = quarters 0. (max 1 (n / 8)) in
        let weight = quarters 0.25 8 in
        let sizes = Array.init m (fun _ -> quarters 0.5 15) in
        Job.create ~id ~release ~weight ~sizes ())
  in
  let jobs =
    List.sort
      (fun (a : Job.t) (b : Job.t) ->
        match Float.compare a.release b.release with 0 -> Int.compare a.id b.id | c -> c)
      drawn
    |> List.mapi (fun id (j : Job.t) -> Job.create ~id ~release:j.release ~weight:j.weight ~sizes:j.sizes ())
  in
  Instance.create
    ~name:(Printf.sprintf "burst-n%d-m%d-s%d" n m seed)
    ~machines:(Machine.fleet m) ~jobs ()

(* The instance [rejsched run -w uniform -n N -m M --seed S] generates. *)
let uniform_instance ~seed w =
  Sched_workload.Gen.instance (Sched_workload.Suite.flow_uniform ~n:w.n ~m:w.m) ~seed

let generate ~seed w =
  match w.shape with Uniform -> uniform_instance ~seed w | Burst -> burst_instance ~n:w.n ~m:w.m ~seed

(* One arrival record in the format [rejsched serve] reads.  A size equal
   to its left neighbour (every size, on identical machines) reuses its
   text. *)
let arrival_line (j : Job.t) =
  let b = Buffer.create (48 + (20 * Array.length j.sizes)) in
  Printf.bprintf b "{\"job\":%d,\"release\":%s,\"weight\":%s,\"sizes\":[" j.id
    (N.float_repr j.release) (N.float_repr j.weight);
  let text = ref "" in
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      if i = 0 || not (Float.equal s j.sizes.(i - 1)) then text := N.float_repr s;
      Buffer.add_string b !text)
    j.sizes;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

type paced = {
  src : In_channel.t;
  count : int;
  rate : float;
  late : float array;  (** seconds each arrival was queued for the pipe after it was due *)
  mutable t0 : float;  (** when arrival 0 is due *)
}

type stdin_src = File of string | Piped of paced

type child = {
  exited_ok : bool;
  spawned : float;
  reaped : float;
  hwm_mb : float;  (** the child's peak resident set ([VmHWM]) *)
  out_bytes : int;
  out_lines : int;
  log : string;  (** file holding the child's standard error *)
}

(* A child that runs longer than this is killed and the run fails. *)
let child_timeout = 150.

(* Paced arrival 0 is due this long after the spawn, so process start-up
   is not charged to the first decisions. *)
let start_offset = 0.05

let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' status)

let rec restart_on_eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f x

(* With [~batch_reads:true], the reader waits this long after each read, so
   the child's output reaches it in chunks.  serve writes and flushes a
   few lines per arrival; a reader that wakes on every write makes
   serve's wall time depend on where the scheduler puts the two
   processes (measured on serve-uniform's command: 7 to 166,000
   involuntary context switches of serve per run, wall 1.4-2.1 s,
   against 2 to 1,400 and 1.2-1.5 s with this wait).  Decisions are
   then timed to within it. *)
let read_interval = 0.001

(* Runs [prog args] to completion: standard input from a file or from
   the paced generator, standard output split into lines for [on_line]
   (called with the clock reading of the read that delivered the line),
   standard error into [log].  The child's VmHWM is polled while it runs. *)
let run_child ~batch_reads ~prog ~args ~stdin ~log ~on_line =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let child_in, gen =
    match stdin with
    | File path -> (Unix.openfile path [ Unix.O_RDONLY; O_CLOEXEC ] 0, ref None)
    | Piped _ ->
        let r, w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock w;
        (r, ref (Some w))
  in
  let spawned = now () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) child_in out_w err in
  List.iter Unix.close [ child_in; out_w; err ];
  let close_gen () =
    match !gen with
    | Some w ->
        gen := None;
        Unix.close w
    | None -> ()
  in
  let status = ref None in
  Fun.protect
    ~finally:(fun () ->
      close_gen ();
      Unix.close out_r;
      if !status = None then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (restart_on_eintr (Unix.waitpid []) pid)
      end)
    (fun () ->
      (* The paced generator: lines queue when due and go out through a
         non-blocking pipe, so a stalled child never stalls the reader. *)
      let queue = Queue.create () and head = ref 0 and next = ref 0 in
      (match stdin with Piped p -> p.t0 <- spawned +. start_offset | File _ -> ());
      let rec flush w =
        if not (Queue.is_empty queue) then begin
          let s = Queue.peek queue in
          let len = String.length s - !head in
          match Unix.single_write_substring w s !head len with
          | k when k = len ->
              ignore (Queue.pop queue);
              head := 0;
              flush w
          | k -> head := !head + k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        end
      in
      let generate t =
        match (stdin, !gen) with
        | Piped p, Some w ->
            let due k = p.t0 +. (float_of_int k /. p.rate) in
            while !next < p.count && due !next <= t do
              p.late.(!next) <- t -. due !next;
              (match In_channel.input_line p.src with
              | Some l -> Queue.add (l ^ "\n") queue
              | None -> failwith "arrival file ended early");
              incr next
            done;
            (* EPIPE: the child is gone; its exit status reports why. *)
            (try flush w
             with Unix.Unix_error (Unix.EPIPE, _, _) ->
               Queue.clear queue;
               next := p.count);
            if !next >= p.count && Queue.is_empty queue then close_gen ()
        | _ -> ()
      in
      let buf = Bytes.create 65536 and partial = Buffer.create 256 in
      let out_bytes = ref 0 and out_lines = ref 0 in
      (* The child's memory peaks at the end of its stream, just before it
         writes its last lines and exits, and a zombie has no VmHWM; so
         the reader polls within a millisecond of every read, and every
         10 ms while the child is silent.  Reading /proc/<pid>/status can
         stall the reader for milliseconds, so the paced generator polls
         only after its last arrival. *)
      let hwm = ref 0 and polled = ref neg_infinity in
      let poll t =
        if !gen = None && t -. !polled >= 0.001 then begin
          polled := t;
          hwm := max !hwm (vm_hwm_kb pid)
        end
      in
      let deliver t k =
        let start = ref 0 in
        for i = 0 to k - 1 do
          if Bytes.get buf i = '\n' then begin
            Buffer.add_subbytes partial buf !start (i - !start);
            let line = Buffer.contents partial in
            Buffer.clear partial;
            incr out_lines;
            on_line t line;
            start := i + 1
          end
        done;
        Buffer.add_subbytes partial buf !start (k - !start)
      in
      let eof = ref false in
      while not !eof do
        let t = now () in
        if t -. spawned > child_timeout then
          failwith (Printf.sprintf "%s %s: no exit after %.0f s" prog (String.concat " " args) child_timeout);
        generate t;
        poll t;
        let timeout =
          match (stdin, !gen) with
          | Piped p, Some _ when !next < p.count ->
              Float.max 0. (Float.min 0.01 (p.t0 +. (float_of_int !next /. p.rate) -. t))
          | _ -> 0.01
        in
        let writes = match !gen with Some w when not (Queue.is_empty queue) -> [ w ] | _ -> [] in
        match Unix.select [ out_r ] writes [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
            match Unix.read out_r buf 0 (Bytes.length buf) with
            | 0 -> eof := true
            | k ->
                out_bytes := !out_bytes + k;
                let t = now () in
                poll t;
                deliver t k;
                if batch_reads then Unix.sleepf read_interval
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      done;
      hwm := max !hwm (vm_hwm_kb pid);
      close_gen ();
      let _, st = restart_on_eintr (Unix.waitpid []) pid in
      status := Some st;
      {
        exited_ok = (match st with Unix.WEXITED 0 -> true | _ -> false);
        spawned;
        reaped = now ();
        hwm_mb = float_of_int !hwm /. 1024.;
        out_bytes = !out_bytes;
        out_lines = !out_lines;
        log;
      })

(* Writes a file's dirty pages out now, so their writeback does not run
   in the background of a later measurement. *)
let sync_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY; O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let log_tail c =
  let s = try In_channel.with_open_bin c.log In_channel.input_all with Sys_error _ -> "" in
  let k = String.length s in
  String.trim (if k > 600 then String.sub s (k - 600) 600 else s)

let exit_error c =
  if c.exited_ok then None else Some ("the child exited with an error: " ^ log_tail c)

(* ------------------------------------------------------------------ *)
(* Prepared inputs and the batch reference                             *)

type prepared = {
  w : workload;
  files : string list;  (** arrival NDJSON, one file per serve process *)
  in_bytes : int;
  reference : string;  (** the batch reference's decision stream (serve workloads) *)
  ref_rejected : int;
  lb : float;  (** [Lower_bounds.volume] of the fed jobs (serve workloads) *)
  snap : string;  (** checkpoint file (serve-checkpoint) *)
}

let csv_field csv key =
  List.find_map
    (fun line ->
      match String.index_opt line ',' with
      | Some i when String.equal (String.sub line 0 i) key ->
          Some (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> None)
    (String.split_on_char '\n' csv)

let lines_collector () =
  let b = Buffer.create 1024 in
  ( b,
    fun _ line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n' )

let serve_args w =
  [ "serve"; "-p"; "flow-reject"; "-m"; string_of_int w.m; "--batch"; string_of_int (batch_of w) ]

(* [rejsched run] on the instance it generates itself from the seed. *)
let run_args ~seed ~n w =
  [
    "run"; "-p"; "thm1"; "--eps"; eps_arg; "-w"; "uniform"; "-n"; string_of_int n; "-m"; string_of_int w.m;
    "--seed"; string_of_int seed; "--csv";
  ]

(* Writes a serve workload's arrival files and runs the batch reference
   over the same jobs.  run-cluster needs neither: its command generates
   the instance from the seed. *)
let prepare ~rejsched ~dir ~seed w =
  let path suffix = Filename.concat dir (w.name ^ "-" ^ suffix) in
  let empty =
    { w; files = []; in_bytes = 0; reference = ""; ref_rejected = 0; lb = nan; snap = path "checkpoint.snap" }
  in
  match w.mode with
  | Batch -> empty
  | Serve _ | Paced _ | Split ->
      let inst = generate ~seed w in
      let lb = (Sched_baselines.Lower_bounds.volume inst).Sched_baselines.Lower_bounds.value in
      let jobs = Instance.jobs_by_release inst in
      let write file lo hi =
        Out_channel.with_open_bin file (fun oc ->
            for k = lo to hi - 1 do
              Out_channel.output_string oc (arrival_line jobs.(k));
              Out_channel.output_char oc '\n'
            done);
        file
      in
      let files =
        match w.mode with
        | Split -> [ write (path "part1.ndjson") 0 (w.n / 2); write (path "part2.ndjson") (w.n / 2) w.n ]
        | _ -> [ write (path "arrivals.ndjson") 0 w.n ]
      in
      let in_bytes = List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 files in
      (* The batch reference regenerates uniform instances from the seed;
         the burst instance has no generator in rejsched, so it is saved. *)
      let inst_file = path "instance.txt" and reference = path "reference.ndjson" in
      let source =
        match w.shape with
        | Burst ->
            Sched_model.Serialize.save_instance ~path:inst_file inst;
            [ "run"; "--load"; inst_file; "-p"; "thm1"; "--eps"; eps_arg; "--csv" ]
        | Uniform -> run_args ~seed ~n:w.n w
      in
      let csv, on_line = lines_collector () in
      let c =
        run_child ~batch_reads:false ~prog:rejsched ~args:(source @ [ "--trace-ndjson"; reference ])
          ~stdin:(File "/dev/null")
          ~log:(path "reference.log") ~on_line
      in
      if Sys.file_exists inst_file then Sys.remove inst_file;
      (match exit_error c with Some e -> failwith ("batch reference: " ^ e) | None -> ());
      List.iter sync_file (reference :: files);
      let ref_rejected =
        match Option.bind (csv_field (Buffer.contents csv) "rejected jobs") int_of_string_opt with
        | Some r -> r
        | None -> failwith "batch reference: no \"rejected jobs\" row"
      in
      { empty with files; in_bytes; reference; ref_rejected; lb }

(* ------------------------------------------------------------------ *)
(* Checking a serve decision stream                                    *)

let trace_prefix = "{\"schema\":\"rejsched.trace/1\","
let serve_prefix = "{\"schema\":\"rejsched.serve/1\","
let progress_prefix = serve_prefix ^ "\"type\":\"progress\","

type stream = {
  reference : In_channel.t;
  decided : float array;  (** when each arrival's progress record was read *)
  mutable fed : int;
  mutable decisions : int;
  mutable error : string option;
  mutable summaries : string list;  (** suspended/closed records, newest first *)
}

let fail st msg = if st.error = None then st.error <- Some msg

(* serve writes the fed count right after the record type. *)
let fed_prefix = progress_prefix ^ "\"fed\":"

let fed_of_progress line =
  let j = String.length fed_prefix and ln = String.length line in
  let k = ref j in
  while !k < ln && line.[!k] >= '0' && line.[!k] <= '9' do
    incr k
  done;
  int_of_string_opt (String.sub line j (!k - j))

let on_serve_line st t line =
  if String.starts_with ~prefix:trace_prefix line then begin
    st.decisions <- st.decisions + 1;
    match In_channel.input_line st.reference with
    | Some r when String.equal r line -> ()
    | Some r ->
        fail st
          (Printf.sprintf "decision line %d differs from the batch reference:\n  got      %s\n  expected %s"
             st.decisions line r)
    | None -> fail st (Printf.sprintf "decision line %d is past the batch reference's end" st.decisions)
  end
  else if String.starts_with ~prefix:fed_prefix line then begin
    match fed_of_progress line with
    | Some k when k <= Array.length st.decided && k >= st.fed ->
        Array.fill st.decided st.fed (k - st.fed) t;
        st.fed <- k
    | _ -> fail st ("bad progress record: " ^ line)
  end
  else if String.starts_with ~prefix:serve_prefix line then st.summaries <- line :: st.summaries
  else fail st ("unexpected output line: " ^ line)

let summary_field line key =
  match N.parse line with
  | Error e -> Error ("unparsable record: " ^ e)
  | Ok j -> (
      match N.member key j with
      | Some (N.Jnum v) -> Ok v
      | Some (N.Jstr s) -> Error (Printf.sprintf "%S is %S" key s)
      | _ -> Error (Printf.sprintf "record has no %S: %s" key line))

let check_summary ~kind ~fed line =
  match N.parse line with
  | Ok j -> (
      match (N.member "type" j, N.member "fed" j) with
      | Some (N.Jstr k), Some (N.Jnum f) when String.equal k kind && int_of_float f = fed -> Ok ()
      | _ -> Error (Printf.sprintf "expected a %s record with fed=%d, got %s" kind fed line))
  | Error e -> Error ("unparsable record: " ^ e)

let ( let* ) = Result.bind

(* The closed record: every arrival fed, the rejections the batch
   reference made, within Theorem 1's 2*eps budget. *)
let check_stream p st children =
  let n = p.w.n in
  let* () = match List.find_map exit_error children with Some e -> Error e | None -> Ok () in
  let* () = match st.error with Some e -> Error e | None -> Ok () in
  let* () =
    match In_channel.input_line st.reference with
    | None -> Ok ()
    | Some _ -> Error (Printf.sprintf "missing decisions: the stream stopped after %d lines" st.decisions)
  in
  let* () = if st.fed = n then Ok () else Error (Printf.sprintf "progress reached fed=%d of %d" st.fed n) in
  let* closed, earlier =
    match st.summaries with c :: rest -> Ok (c, rest) | [] -> Error "no closed record"
  in
  let* () = check_summary ~kind:"closed" ~fed:n closed in
  let* () =
    match (p.w.mode, earlier) with
    | Split, [ s ] -> check_summary ~kind:"suspended" ~fed:(n / 2) s
    | Split, _ -> Error "expected one suspended record before the restore"
    | _, [] -> Ok ()
    | _, _ -> Error "more than one summary record"
  in
  let* rejected = summary_field closed "rejected" in
  let rejected = int_of_float rejected in
  if rejected <> p.ref_rejected then
    Error (Printf.sprintf "closed record rejected %d jobs, the batch reference %d" rejected p.ref_rejected)
  else if float_of_int rejected > 2. *. eps *. float_of_int n then
    Error (Printf.sprintf "rejected %d of %d jobs, above Theorem 1's 2*eps budget" rejected n)
  else Ok closed

(* ------------------------------------------------------------------ *)
(* One end-to-end repetition                                           *)

type sample = {
  wall : float;  (** spawn to exit, summed over the workload's processes *)
  p50_us : float;
  p99_us : float;
  rss_mb : float;  (** largest VmHWM over the workload's processes *)
  out_bytes : int;
  out_lines : int;
  late_p99_us : float;  (** paced generator lateness; 0 for the other workloads *)
  summary : string;  (** the closed record (serve) or the CSV table (run) *)
}

let latencies_us decided due =
  let a = Array.mapi (fun k d -> (d -. due k) *. 1e6) decided in
  Array.sort Float.compare a;
  (percentile a 0.5, percentile a 0.99)

let rep ~rejsched ~dir ~seed p =
  let w = p.w in
  let log = Filename.concat dir (w.name ^ ".log") in
  (* File-fed commands are read in chunks; the paced generator's reader
     must see each decision as it comes. *)
  let child ?(stdin = File "/dev/null") args on_line =
    let batch_reads = match stdin with File _ -> true | Piped _ -> false in
    run_child ~batch_reads ~prog:rejsched ~args ~stdin ~log ~on_line
  in
  let sample ~children ~p50 ~p99 ~late ~summary =
    {
      wall = List.fold_left (fun acc c -> acc +. (c.reaped -. c.spawned)) 0. children;
      p50_us = p50;
      p99_us = p99;
      rss_mb = List.fold_left (fun acc c -> Float.max acc c.hwm_mb) 0. children;
      out_bytes = List.fold_left (fun acc (c : child) -> acc + c.out_bytes) 0 children;
      out_lines = List.fold_left (fun acc (c : child) -> acc + c.out_lines) 0 children;
      late_p99_us = late;
      summary;
    }
  in
  match w.mode with
  | Batch ->
      (* A batch user sees every decision when the table comes out, so
         each arrival's time to decision is the whole run. *)
      let csv, on_line = lines_collector () in
      let c = child (run_args ~seed ~n:w.n w) on_line in
      let csv = Buffer.contents csv in
      let* () = match exit_error c with Some e -> Error e | None -> Ok () in
      (* Every repetition must print the same table (e2e_result compares
         them); the layer run also checks it against the library. *)
      let* () =
        match Option.bind (csv_field csv "rejected jobs") int_of_string_opt with
        | Some r when float_of_int r <= 2. *. eps *. float_of_int w.n -> Ok ()
        | Some r -> Error (Printf.sprintf "rejected %d of %d jobs, above Theorem 1's 2*eps budget" r w.n)
        | None -> Error "run printed no \"rejected jobs\" row"
      in
      let wall_us = (c.reaped -. c.spawned) *. 1e6 in
      Ok (sample ~children:[ c ] ~p50:wall_us ~p99:wall_us ~late:0. ~summary:csv)
  | Serve _ | Paced _ | Split ->
      let st =
        {
          reference = In_channel.open_bin p.reference;
          decided = Array.make w.n 0.;
          fed = 0;
          decisions = 0;
          error = None;
          summaries = [];
        }
      in
      Fun.protect
        ~finally:(fun () -> In_channel.close st.reference)
        (fun () ->
          let on_line = on_serve_line st in
          let children, due, late =
            match (w.mode, p.files) with
            | Paced rate, [ f ] ->
                In_channel.with_open_bin f (fun src ->
                    let g = { src; count = w.n; rate; late = Array.make w.n 0.; t0 = 0. } in
                    let c = child ~stdin:(Piped g) (serve_args w) on_line in
                    let late = sorted (Array.to_list g.late) in
                    ([ c ], (fun k -> g.t0 +. (float_of_int k /. rate)), percentile late 0.99 *. 1e6))
            | Split, [ f1; f2 ] ->
                let c1 = child (serve_args w @ [ "--input"; f1; "--checkpoint"; p.snap ]) on_line in
                let c2 = child [ "serve"; "--restore"; p.snap; "--input"; f2 ] on_line in
                ([ c1; c2 ], (fun k -> if k < w.n / 2 then c1.spawned else c2.spawned), 0.)
            | _, files ->
                (* File-fed: the whole input exists at the spawn. *)
                let c = child (serve_args w @ List.concat_map (fun f -> [ "--input"; f ]) files) on_line in
                ([ c ], (fun _ -> c.spawned), 0.)
          in
          if Sys.file_exists p.snap then sync_file p.snap;
          let* closed = check_stream p st children in
          let p50, p99 = latencies_us st.decided due in
          Ok (sample ~children ~p50 ~p99 ~late ~summary:closed))

(* A paced repetition whose generator ran later than this at p99 did not
   offer the load it claims, so it is run again, up to [paced_attempts]
   times; the last attempt is kept with a warning, since its outputs
   were checked and only its timing is in doubt. *)
let late_limit_us = 1000.
let paced_attempts = 3

let rec valid_rep ?(attempt = 1) ~rejsched ~dir ~seed p =
  match rep ~rejsched ~dir ~seed p with
  | Ok s when s.late_p99_us > late_limit_us ->
      Printf.eprintf "ladder: %s: the generator ran %.0f us late at p99 (limit %.0f us)%s\n%!" p.w.name
        s.late_p99_us late_limit_us
        (if attempt < paced_attempts then "; repeating" else "; kept, timing in doubt");
      if attempt < paced_attempts then valid_rep ~attempt:(attempt + 1) ~rejsched ~dir ~seed p else Ok s
  | r -> r

(* Set-up time: the workload's command with no arrivals, spawned this
   many times before each repetition, so that the samples spread over the
   run as the repetitions do; the median is reported. *)
let setup_spawns = 5

let setup_samples ~rejsched ~dir ~seed p =
  let args =
    match p.w.mode with
    | Batch -> run_args ~seed ~n:1 p.w
    | Split -> serve_args p.w @ [ "--checkpoint"; p.snap ]
    | Serve _ | Paced _ -> serve_args p.w
  in
  List.init setup_spawns (fun _ ->
      let c =
        run_child ~batch_reads:false ~prog:rejsched ~args ~stdin:(File "/dev/null")
          ~log:(Filename.concat dir (p.w.name ^ "-setup.log"))
          ~on_line:(fun _ _ -> ())
      in
      match exit_error c with Some e -> failwith ("set-up spawn: " ^ e) | None -> c.reaped -. c.spawned)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = { mname : string; unit_ : string; samples : float list }

type result = {
  wname : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  errors : string list;
}

let metric mname unit_ samples = { mname; unit_; samples }
let value m = median m.samples

type state = {
  p : prepared;
  mutable setup : float list;  (** scaled to the reference host *)
  mutable reps : (sample * float) list;  (** each with its host scale *)
  mutable errors : string list;
  mutable attempted : int;
  mutable failed : int;
}

let e2e_result s =
  let w = s.p.w in
  let reps = List.rev s.reps in
  let errors = ref (List.rev s.errors) in
  let quality =
    match List.map fst reps with
    | [] -> []
    | first :: rest ->
        if List.exists (fun r -> not (String.equal r.summary first.summary)) rest then
          errors := "the final record differs between repetitions" :: !errors;
        let n = float_of_int w.n in
        let rejected, ratio =
          match w.mode with
          | Batch ->
              let num key = Option.bind (csv_field first.summary key) float_of_string_opt in
              (num "rejected jobs", num "flow / volume-LB")
          | Serve _ | Paced _ | Split ->
              let num key = Result.to_option (summary_field first.summary key) in
              (num "rejected", Option.map (fun f -> f /. s.p.lb) (num "flow_total"))
        in
        (match (rejected, ratio) with
        | Some r, Some q when r > 0. && q > 0. -> ()
        | _ -> errors := "no rejections or flow ratio in the final record" :: !errors);
        [
          metric "rejected_frac" "ratio" [ Option.value ~default:nan rejected /. n ];
          metric "flow_ratio" "ratio" [ Option.value ~default:nan ratio ];
        ]
  in
  let per f = List.map (fun (r, scale) -> f r scale) reps in
  (* serve-paced's rate is set by the generator's clock, not by the host. *)
  let wall r scale = match w.mode with Paced _ -> r.wall | Serve _ | Split | Batch -> r.wall *. scale in
  {
    wname = w.name;
    correct = !errors = [] && reps <> [];
    attempted = s.attempted;
    failed = s.failed;
    metrics =
      [
        metric "jobs_per_s" "1/s" (per (fun r scale -> float_of_int w.n /. wall r scale));
        metric "decision_p50_us" "us" (per (fun r scale -> r.p50_us *. scale));
        metric "peak_rss_mb" "MB" (per (fun r _ -> r.rss_mb));
        metric "setup_s" "s" s.setup;
      ]
      @ quality;
    errors = !errors;
  }

(* Host speed.  A shared virtual machine changes speed by tens of
   percent over minutes, which would swamp the differences between runs
   that the benchmark exists to show.  So a fixed computation that uses
   only the standard library is timed before every repetition and after
   the last; every duration a repetition measures is multiplied by its
   host scale, [calibration_reference / c] with [c] the mean of the two
   calibrations around it.  Durations are thus reported in seconds of a
   host that runs the calibration in [calibration_reference] seconds.
   The calibration has two halves: sorting an array and formatting
   integers load the processor and its caches; filling a hash table and
   a list load the allocator and the collector, as rejsched does.  With
   the first half alone the scaled time of 40 interleaved rejsched runs
   still spread by 6-10%; with both, by 5-7%. *)
let calibration_reference = 0.3

(* The sort runs in place on a preallocated copy, so the bench's own heap
   does not enter that half. *)
let calibration_size = 300_000
let calibration_input = Array.init calibration_size (fun i -> float_of_int (i * 7919 mod 300_007))
let calibration_scratch = Array.make calibration_size 0.
let calibration_buffer = Buffer.create 65536
let calibration_sink = ref 0

let calibrate () =
  let t0 = now () in
  Array.blit calibration_input 0 calibration_scratch 0 calibration_size;
  Array.sort Float.compare calibration_scratch;
  for i = 0 to 200_000 do
    Buffer.add_string calibration_buffer (string_of_int i);
    if Buffer.length calibration_buffer > 60_000 then Buffer.clear calibration_buffer
  done;
  let table = Hashtbl.create 16 in
  for i = 0 to 150_000 do
    Hashtbl.replace table i (string_of_int i, float_of_int i)
  done;
  let list = List.init 400_000 (fun i -> (i, float_of_int i)) in
  calibration_sink := Hashtbl.length table + List.length list;
  now () -. t0

(* Repetitions go round-robin over the workloads, after one untimed
   warm-up round that caches the binary and touches the memory the
   workload needs.  There are at least [min_rounds] timed rounds; with a
   time budget they continue while another fits in it. *)
let min_rounds = 3
let max_rounds = 50

let run_rounds ~rejsched ~dir ~seed ~budget states =
  let attempt s =
    s.attempted <- s.attempted + s.p.w.n;
    let r = valid_rep ~rejsched ~dir ~seed s.p in
    (match r with
    | Ok _ -> ()
    | Error e ->
        s.failed <- s.failed + s.p.w.n;
        s.errors <- e :: s.errors);
    r
  in
  List.iter (fun s -> ignore (attempt s)) states;
  let last_calibration = ref (calibrate ()) in
  let t0 = now () in
  let rec loop r =
    let elapsed = now () -. t0 in
    let more =
      r < min_rounds
      ||
      match budget with
      | Some b -> r < max_rounds && elapsed +. (elapsed /. float_of_int r) <= b
      | None -> false
    in
    if more then begin
      List.iter
        (fun s ->
          let setup = setup_samples ~rejsched ~dir ~seed s.p in
          let result = attempt s in
          let c = calibrate () in
          let scale = calibration_reference /. ((!last_calibration +. c) /. 2.) in
          last_calibration := c;
          s.setup <- List.map (fun t -> t *. scale) setup @ s.setup;
          match result with
          | Ok x ->
              Printf.eprintf "ladder: %s repetition %d: %.2f s, host scale %.3f\n%!" s.p.w.name (r + 1) x.wall
                scale;
              s.reps <- (x, scale) :: s.reps
          | Error _ -> ())
        states;
      loop (r + 1)
    end
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* Span kinds of the in-process replicas. *)
let span_names =
  [| "arrival"; "parse"; "create"; "feed"; "drain"; "since"; "entry_line"; "progress"; "freeze"; "thaw";
     "close"; "generate"; "validate"; "metrics" |]

let k_arrival = 0
let k_parse = 1
let k_create = 2
let k_feed = 3
let k_drain = 4
let k_since = 5
let k_entry = 6
let k_progress = 7
let k_freeze = 8
let k_thaw = 9
let k_close = 10
let k_generate = 11
let k_validate = 12
let k_metrics = 13

(* Spans are kept in preallocated arrays: every span's self time is
   summed per kind, and the full spans (start, end, parent) of the first
   [span_arrivals] arrivals are kept for the Chrome trace. *)
let span_capacity = 262_144
let span_arrivals = 10_000
let max_depth = 16

type spans = {
  self : float array;
  count : int array;
  stk_kind : int array;
  stk_start : float array;
  stk_child : float array;
  stk_slot : int array;
  mutable depth : int;
  rec_kind : int array;
  rec_start : float array;
  rec_stop : float array;
  rec_parent : int array;
  mutable used : int;
  mutable arrivals : int;
}

let spans_create () =
  let k = Array.length span_names in
  {
    self = Array.make k 0.;
    count = Array.make k 0;
    stk_kind = Array.make max_depth 0;
    stk_start = Array.make max_depth 0.;
    stk_child = Array.make max_depth 0.;
    stk_slot = Array.make max_depth (-1);
    depth = 0;
    rec_kind = Array.make span_capacity 0;
    rec_start = Array.make span_capacity 0.;
    rec_stop = Array.make span_capacity 0.;
    rec_parent = Array.make span_capacity (-1);
    used = 0;
    arrivals = 0;
  }

let span_enter sp k =
  if k = k_arrival then sp.arrivals <- sp.arrivals + 1;
  let t = now () in
  let d = sp.depth in
  sp.stk_kind.(d) <- k;
  sp.stk_start.(d) <- t;
  sp.stk_child.(d) <- 0.;
  let slot =
    if sp.arrivals <= span_arrivals && sp.used < span_capacity then begin
      let s = sp.used in
      sp.rec_kind.(s) <- k;
      sp.rec_start.(s) <- t;
      sp.rec_parent.(s) <- (if d > 0 then sp.stk_slot.(d - 1) else -1);
      sp.used <- s + 1;
      s
    end
    else -1
  in
  sp.stk_slot.(d) <- slot;
  sp.depth <- d + 1

let span_leave sp =
  let t = now () in
  let d = sp.depth - 1 in
  sp.depth <- d;
  let dur = t -. sp.stk_start.(d) in
  let k = sp.stk_kind.(d) in
  sp.self.(k) <- sp.self.(k) +. dur -. sp.stk_child.(d);
  sp.count.(k) <- sp.count.(k) + 1;
  if d > 0 then sp.stk_child.(d - 1) <- sp.stk_child.(d - 1) +. dur;
  let slot = sp.stk_slot.(d) in
  if slot >= 0 then sp.rec_stop.(slot) <- t

(* [enter] and [leave] for an optional span recorder. *)
let span_hooks = function
  | Some sp -> ((fun k -> span_enter sp k), fun () -> span_leave sp)
  | None -> ((fun _ -> ()), fun () -> ())

let write_chrome_trace sp path =
  Out_channel.with_open_bin path (fun oc ->
      let origin = if sp.used > 0 then sp.rec_start.(0) else 0. in
      Out_channel.output_string oc "{\"traceEvents\":[\n";
      for s = 0 to sp.used - 1 do
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"cat\":\"ladder\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d}}\n"
          (if s = 0 then "" else ",")
          span_names.(sp.rec_kind.(s))
          ((sp.rec_start.(s) -. origin) *. 1e6)
          ((sp.rec_stop.(s) -. sp.rec_start.(s)) *. 1e6)
          s sp.rec_parent.(s)
      done;
      Out_channel.output_string oc "]}\n")

(* ------------------------------------------------------------------ *)
(* In-process replicas                                                 *)

(* [rejsched serve]'s arrival decoding, split at the parse/create
   boundary. *)
let job_of_json j =
  let num name = match N.member name j with Some (N.Jnum v) -> Some v | _ -> None in
  match (num "job", num "release", N.member "sizes" j) with
  | Some id, Some release, Some (N.Jarr raw) ->
      let size = function N.Jnum v -> v | N.Jstr "Infinity" -> infinity | _ -> nan in
      Job.create ~id:(int_of_float id) ~release ?weight:(num "weight") ?deadline:(num "deadline")
        ~sizes:(Array.of_list (List.map size raw))
        ()
  | _ -> failwith "bad arrival record"

let parse_json line = match N.parse line with Ok j -> j | Error e -> failwith ("bad arrival: " ^ e)
let serve_schema = "rejsched.serve/1"

let progress_line (s : PR.stream_session) drained =
  N.line ~schema:serve_schema
    [
      ("type", N.String "progress");
      ("fed", N.Int (s.PR.ss_fed ()));
      ("drained", N.Float drained);
      ("next_key", N.Float (s.PR.ss_next_key ()));
    ]

let summary_line (s : PR.stream_session) kind (live : D.live_metrics) =
  N.line ~schema:serve_schema
    [
      ("type", N.String kind);
      ("policy", N.String flow_reject.PR.name);
      ("fed", N.Int (s.PR.ss_fed ()));
      ("flow_total", N.Float live.flow.Metrics.total);
      ("flow_weighted", N.Float live.flow.Metrics.weighted);
      ("flow_max", N.Float live.flow.Metrics.max_flow);
      ("rejected", N.Int live.rejection.Metrics.count);
      ("rejected_weight", N.Float live.rejection.Metrics.weight);
      ("rejected_midrun", N.Int live.rejection.Metrics.mid_run);
      ("energy", N.Float live.energy);
      ("makespan", N.Float live.makespan);
    ]

type replica = { r_wall : float; r_events : int; r_closed : string }

(* [rejsched serve]'s loop in process: read line, parse, create, feed,
   drain every batch, export the new decisions and a progress record
   into a buffer that is dropped as it fills; checkpoint and restore
   between the two files of serve-checkpoint. *)
let serve_replica ?spans p =
  let enter, leave = span_hooks spans in
  let t0 = now () in
  let w = p.w in
  let batch = batch_of w in
  let session =
    ref (flow_reject.PR.open_stream ~trace:(Trace.create ()) ~machines:(Machine.fleet w.m) ())
  in
  let out = Buffer.create 65536 in
  let emit line =
    Buffer.add_string out line;
    Buffer.add_char out '\n';
    if Buffer.length out >= 65536 then Buffer.clear out
  in
  let cursor = ref 0 in
  let emit_decisions () =
    match !session.PR.ss_trace () with
    | None -> ()
    | Some t ->
        enter k_since;
        let entries = Trace.since t !cursor in
        leave ();
        List.iter
          (fun e ->
            enter k_entry;
            emit (Sched_sim.Trace_export.entry_line e);
            leave ())
          entries;
        cursor := Trace.length t
  in
  let pending = ref 0 and last = ref neg_infinity in
  let flush () =
    if !pending > 0 then begin
      enter k_drain;
      !session.PR.ss_drain_until !last;
      leave ();
      emit_decisions ();
      enter k_progress;
      emit (progress_line !session !last);
      leave ();
      pending := 0
    end
  in
  let arrival line =
    enter k_arrival;
    enter k_parse;
    let j = parse_json line in
    leave ();
    enter k_create;
    let job = job_of_json j in
    leave ();
    enter k_feed;
    !session.PR.ss_feed job;
    leave ();
    last := job.Job.release;
    incr pending;
    if !pending >= batch then flush ();
    leave ()
  in
  let read_file f =
    In_channel.with_open_bin f (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | Some l ->
              arrival l;
              go ()
          | None -> ()
        in
        go ())
  in
  (match p.files with
  | [ first; rest ] ->
      read_file first;
      flush ();
      enter k_freeze;
      let snap = Sched_sim.Snapshot.wrap ~policy:flow_reject.PR.name ~payload:(!session.PR.ss_freeze ()) in
      emit (summary_line !session "suspended" (!session.PR.ss_live ()));
      leave ();
      enter k_thaw;
      (match Sched_sim.Snapshot.unwrap snap with
      | Ok (_, payload) -> session := flow_reject.PR.restore_stream payload
      | Error e -> failwith (Sched_sim.Snapshot.error_to_string e));
      leave ();
      read_file rest
  | files -> List.iter read_file files);
  flush ();
  enter k_close;
  let _, live = !session.PR.ss_close () in
  leave ();
  emit_decisions ();
  let closed = summary_line !session "closed" live in
  emit closed;
  { r_wall = now () -. t0; r_events = !cursor; r_closed = closed }

(* One arrival plus a start and a finish per laid segment. *)
let events_of (s : Sched_model.Schedule.t) =
  Instance.n s.Sched_model.Schedule.instance + (2 * List.length s.Sched_model.Schedule.segments)

(* [rejsched run]'s work in process: generate, feed every job into a
   session, close, validate, compute the table's metrics.  Its result is
   the two table rows [run --csv] must print. *)
let batch_replica ?spans ~seed w =
  let enter, leave = span_hooks spans in
  let t0 = now () in
  enter k_generate;
  let inst = uniform_instance ~seed w in
  leave ();
  let s = D.Session.open_session ~name:inst.Instance.name ~machines:inst.Instance.machines (policy ()) in
  Array.iter
    (fun job ->
      enter k_arrival;
      enter k_feed;
      D.Session.feed s job;
      leave ();
      leave ())
    (Instance.jobs_by_release inst);
  enter k_close;
  let schedule, _, _ = D.Session.close s in
  leave ();
  let schedule = Option.get schedule in
  enter k_validate;
  Sched_model.Schedule.assert_valid ~check_deadlines:false schedule;
  leave ();
  enter k_metrics;
  let f = Metrics.flow schedule and r = Metrics.rejection schedule in
  let lb = Sched_baselines.Lower_bounds.volume inst in
  leave ();
  let closed =
    Printf.sprintf "rejected jobs,%s\nflow / volume-LB,%s"
      (Sched_stats.Table.cell_int r.Metrics.count)
      (Sched_stats.Table.cell_float (f.Metrics.total_with_rejected /. lb.Sched_baselines.Lower_bounds.value))
  in
  { r_wall = now () -. t0; r_events = events_of schedule; r_closed = closed }

let replica ?spans ~seed p =
  match p.w.mode with Batch -> batch_replica ?spans ~seed p.w | Serve _ | Paced _ | Split -> serve_replica ?spans p

(* ------------------------------------------------------------------ *)
(* The ladder                                                          *)

(* Rows, each timed over the workload's jobs. *)
type row = Pqueue | Core | Policy | Recorder | Obs | Session

let rows = [ Pqueue; Core; Policy; Recorder; Obs; Session ]

let row_name = function
  | Pqueue -> "pqueue"
  | Core -> "core"
  | Policy -> "policy"
  | Recorder -> "recorder"
  | Obs -> "obs"
  | Session -> "session"

(* The row a row adds to; its [delta_ns_per_event] is measured against
   that row.  The session row is serve's configuration -- flow-reject, a
   Trace, drains every --batch arrivals, no recorder or telemetry -- so
   it builds on the policy row. *)
let row_base = function
  | Pqueue -> None
  | Core -> Some Pqueue
  | Policy -> Some Core
  | Recorder | Session -> Some Policy
  | Obs -> Some Recorder

(* L0, a control: push and pop as many events as the core processed. *)
let pqueue_control events =
  let module E = Sched_sim.Pqueue.Events in
  let q = E.create () in
  for k = 0 to events - 1 do
    E.push q ~key:(float_of_int (k * 7919 mod events)) ~tag:(E.Key.arrival_tag ~seq:k) ~payload:0
  done;
  while E.pop q do
    ()
  done;
  events

let feed_close s jobs =
  Array.iter (D.Session.feed s) jobs;
  let schedule, _, _ = D.Session.close s in
  events_of (Option.get schedule)

(* Returns the row's event count (and the session row's trace). *)
let run_row row ~jobs ~machines ~batch ~events =
  let open_ ?trace ?recorder ?obs pol = D.Session.open_session ?trace ?recorder ?obs ~machines pol in
  match row with
  | Pqueue -> (pqueue_control events, None)
  | Core -> (feed_close (open_ Sched_baselines.Greedy_dispatch.fifo) jobs, None)
  | Policy -> (feed_close (open_ (policy ())) jobs, None)
  | Recorder -> (feed_close (open_ ~recorder:(Sched_obs.Recorder.create ()) (policy ())) jobs, None)
  | Obs ->
      ( feed_close
          (open_ ~recorder:(Sched_obs.Recorder.create ()) ~obs:(Sched_obs.Obs.timed ()) (policy ()))
          jobs,
        None )
  | Session ->
      let trace = Trace.create () in
      let s = open_ ~trace (policy ()) in
      let pending = ref 0 in
      Array.iter
        (fun (j : Job.t) ->
          D.Session.feed s j;
          incr pending;
          if !pending >= batch then begin
            D.Session.drain_until s j.release;
            pending := 0
          end)
        jobs;
      let schedule, _, _ = D.Session.close s in
      (events_of (Option.get schedule), Some trace)

type row_sample = { ns_per_event : float; words_per_event : float }

let measure_row row ~jobs ~machines ~batch ~events =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let ev, trace = run_row row ~jobs ~machines ~batch ~events in
  let dt = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let f = float_of_int ev in
  ({ ns_per_event = dt *. 1e9 /. f; words_per_event = words /. f }, ev, trace)

(* An untimed pass with serve's configuration that reads, before each
   arrival, how many pending jobs flow-reject's lambda scan will walk
   (the pending count of every eligible machine), and checkpoints the
   session halfway as serve --checkpoint would. *)
type scan = {
  scan_per_arrival : float;
  rule1 : int;
  rule2 : int;
  freeze_ms : float;
  snap_bytes : int;
  thaw_ms : float;
}

let scan_pass ~jobs ~machines =
  let pol = policy () in
  let s = ref (D.Session.open_session ~trace:(Trace.create ()) ~machines pol) in
  let n = Array.length jobs in
  let split = n / 2 in
  let scanned = ref 0 in
  let snapshot = ref (0., 0, 0.) in
  Array.iteri
    (fun k (j : Job.t) ->
      if k = split then begin
        D.Session.drain_until !s jobs.(k - 1).Job.release;
        let t0 = now () in
        let snap = Sched_sim.Snapshot.wrap ~policy:pol.D.name ~payload:(D.Session.freeze !s) in
        let t1 = now () in
        (match Sched_sim.Snapshot.unwrap snap with
        | Ok (_, payload) -> s := D.Session.thaw pol payload
        | Error e -> failwith (Sched_sim.Snapshot.error_to_string e));
        snapshot := ((t1 -. t0) *. 1e3, String.length snap, (now () -. t1) *. 1e3)
      end;
      D.Session.drain_until !s (Float.pred j.release);
      let view = D.Session.view !s in
      Array.iteri (fun i _ -> if Job.eligible j i then scanned := !scanned + D.pending_count view i) machines;
      D.Session.feed !s j)
    jobs;
  let _, st, _ = D.Session.close !s in
  let freeze_ms, snap_bytes, thaw_ms = !snapshot in
  {
    scan_per_arrival = float_of_int !scanned /. float_of_int n;
    rule1 = FR.rule1_rejections st;
    rule2 = FR.rule2_rejections st;
    freeze_ms;
    snap_bytes;
    thaw_ms;
  }

(* NDJSON decoding (parse + Job.create) per arrival line.  run-cluster
   has no arrival file; its first lines are rendered in memory. *)
let cluster_ndjson_lines = 2_000

let ndjson_layer p jobs =
  let total = ref 0. and lines = ref 0 and bytes = ref 0 in
  let decode line =
    let t0 = now () in
    ignore (job_of_json (parse_json line));
    total := !total +. (now () -. t0);
    incr lines;
    bytes := !bytes + String.length line + 1
  in
  (match p.files with
  | [] -> Array.iter (fun j -> decode (arrival_line j)) (Array.sub jobs 0 (min cluster_ndjson_lines (Array.length jobs)))
  | files ->
      List.iter
        (fun f ->
          In_channel.with_open_bin f (fun ic ->
              let rec go () =
                match In_channel.input_line ic with
                | Some l ->
                    decode l;
                    go ()
                | None -> ()
              in
              go ()))
        files);
  (!total *. 1e9 /. float_of_int !lines, float_of_int !bytes /. float_of_int !lines)

(* Decision export: Trace.since plus Trace_export.entry_line per decision
   of the session row's trace. *)
let export_layer trace =
  let t0 = now () in
  let bytes = ref 0 in
  List.iter
    (fun e -> bytes := !bytes + String.length (Sched_sim.Trace_export.entry_line e) + 1)
    (Trace.since trace 0);
  let dt = now () -. t0 in
  let k = float_of_int (Trace.length trace) in
  (dt *. 1e9 /. k, float_of_int !bytes /. k)

let proc_lines path prefix =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | s -> List.filter (String.starts_with ~prefix) (String.split_on_char '\n' s)

let nproc () = float_of_int (max 1 (List.length (proc_lines "/proc/cpuinfo" "processor")))

let mem_available_gib () =
  match proc_lines "/proc/meminfo" "MemAvailable:" with
  | line :: _ -> (
      match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
      | [ _; kb; _ ] -> Option.value ~default:0. (float_of_string_opt kb) /. (1024. *. 1024.)
      | _ -> 0.)
  | [] -> 0.

let ladder_rounds = 3

let layers ~rejsched ~dir ~seed ~budget p =
  let t_start = now () in
  let w = p.w in
  let errors = ref [] in
  let error e = errors := e :: !errors in
  (* The untraced replica first, while the heap holds little else. *)
  let g0 = Gc.quick_stat () in
  let plain = replica ~seed p in
  let g1 = Gc.quick_stat () in
  let spans = spans_create () in
  let traced = replica ~spans ~seed p in
  let chrome = Filename.concat (Filename.dirname dir) (Printf.sprintf "spans-%s.json" w.name) in
  write_chrome_trace spans chrome;
  if not (String.equal plain.r_closed traced.r_closed) then error "the traced replica's result differs";
  (* One run of the workload's command for the process-level rows. *)
  let proc =
    match valid_rep ~rejsched ~dir ~seed p with
    | Ok s -> Some s
    | Error e ->
        error e;
        None
  in
  (match (proc, p.w.mode) with
  | Some s, Batch
    when not
           (List.for_all
              (fun row -> List.mem row (String.split_on_char '\n' s.summary))
              (String.split_on_char '\n' plain.r_closed)) ->
      error (Printf.sprintf "run's table disagrees with the library's:\n%s\n%s" plain.r_closed s.summary)
  | Some s, (Serve _ | Paced _ | Split) when not (String.equal s.summary plain.r_closed) ->
      error (Printf.sprintf "the replica's closed record differs from serve's:\n  %s\n  %s" plain.r_closed s.summary)
  | _ -> ());
  (* Ladder rounds, interleaved; within a round the core row runs first
     so the heap control knows the event count.  A row's delta is taken
     against its base row of the same round. *)
  let inst = generate ~seed w in
  let jobs = Instance.jobs_by_release inst and machines = inst.Instance.machines in
  let batch = batch_of w in
  let session_trace = ref None in
  let t_ladder = now () in
  let rec rounds acc r =
    let elapsed = now () -. t_ladder in
    let more =
      r = 0
      ||
      match budget with
      | Some b -> r < ladder_rounds && now () -. t_start +. (elapsed /. float_of_int r) <= b
      | None -> r < ladder_rounds
    in
    if not more then List.rev acc
    else begin
      let events = ref 0 in
      let round =
        List.map
          (fun row ->
            let s, ev, trace = measure_row row ~jobs ~machines ~batch ~events:!events in
            if row = Core then events := ev;
            if trace <> None then session_trace := trace;
            (row, s))
          (Core :: List.filter (fun r -> r <> Core) rows)
      in
      rounds (round :: acc) (r + 1)
    end
  in
  let rounds = rounds [] 0 in
  let per_round row f = List.map (fun round -> f (List.assoc row round)) rounds in
  let ns row = per_round row (fun s -> s.ns_per_event) in
  let row_metrics =
    List.concat_map
      (fun row ->
        let name = row_name row in
        [
          metric (name ^ ".ns_per_event") "ns" (ns row);
          metric (name ^ ".minor_words_per_event") "words" (per_round row (fun s -> s.words_per_event));
        ]
        @
        match row_base row with
        | Some b -> [ metric (name ^ ".delta_ns_per_event") "ns" (List.map2 ( -. ) (ns row) (ns b)) ]
        | None -> [])
      rows
  in
  let sc = scan_pass ~jobs ~machines in
  let nd_ns, nd_bytes = ndjson_layer p jobs in
  let ex_ns, ex_bytes = match !session_trace with Some t -> export_layer t | None -> (nan, nan) in
  let n = float_of_int w.n in
  let proc_metrics =
    match proc with
    | Some s ->
        [
          metric "process.self_ns_per_arrival" "ns" [ (s.wall -. plain.r_wall) *. 1e9 /. n ];
          metric "process.out_lines_per_arrival" "count" [ float_of_int s.out_lines /. n ];
          metric "process.io_mb_per_s" "MB/s" [ float_of_int (p.in_bytes + s.out_bytes) /. 1e6 /. s.wall ];
          metric "client.decision_p99_us" "us" [ s.p99_us ];
        ]
    | None -> []
  in
  let metrics =
    [
      metric "host.nproc" "count" [ nproc () ];
      metric "host.recommended_domains" "count" [ float_of_int (Domain.recommended_domain_count ()) ];
      metric "host.mem_available_gib" "GiB" [ mem_available_gib () ];
    ]
    @ row_metrics
    @ [
        metric "policy.scan_jobs_per_arrival" "count" [ sc.scan_per_arrival ];
        metric "policy.rule1_rejections" "count" [ float_of_int sc.rule1 ];
        metric "policy.rule2_rejections" "count" [ float_of_int sc.rule2 ];
        metric "ndjson.ns_per_line" "ns" [ nd_ns ];
        metric "ndjson.bytes_per_line" "bytes" [ nd_bytes ];
        metric "trace_export.ns_per_line" "ns" [ ex_ns ];
        metric "trace_export.bytes_per_line" "bytes" [ ex_bytes ];
        metric "snapshot.freeze_ms" "ms" [ sc.freeze_ms ];
        metric "snapshot.mb" "MB" [ float_of_int sc.snap_bytes /. 1e6 ];
        metric "snapshot.thaw_ms" "ms" [ sc.thaw_ms ];
        metric "replica.ns_per_arrival" "ns" [ plain.r_wall *. 1e9 /. n ];
        metric "trace.overhead_ratio" "ratio" [ traced.r_wall /. plain.r_wall ];
      ]
    @ proc_metrics
    @ [
        metric "gc.minor_words_per_event" "words"
          [ (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int plain.r_events ];
        metric "gc.major_collections" "count" [ float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) ];
        metric "gc.top_heap_mb" "MB" [ float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 ];
      ]
  in
  (* Self time per span kind, for the human report. *)
  let span_lines =
    Array.to_list
      (Array.mapi
         (fun k name ->
           if spans.count.(k) = 0 then None
           else Some (Printf.sprintf "  %-12s %10.1f ns/arrival self  (%d spans)" name (spans.self.(k) *. 1e9 /. n) spans.count.(k)))
         span_names)
    |> List.filter_map Fun.id
  in
  Printf.printf "\n== %s layers (n=%d, m=%d, %d ladder rounds) ==\n" w.name w.n w.m (List.length rounds);
  Printf.printf "traced replica self time (Chrome trace of the first %d arrivals: %s):\n" span_arrivals chrome;
  List.iter print_endline span_lines;
  let v name = value (List.find (fun m -> String.equal m.mname name) metrics) in
  Printf.printf
    "costs -> rows: flow-reject vs greedy -> policy.delta_ns_per_event = %.1f ns \
     (policy.scan_jobs_per_arrival = %.1f); session vs batch -> session.delta_ns_per_event = %.1f ns; \
     telemetry -> obs.delta_ns_per_event = %.1f ns\n"
    (v "policy.delta_ns_per_event") (v "policy.scan_jobs_per_arrival") (v "session.delta_ns_per_event")
    (v "obs.delta_ns_per_event");
  let errors = List.rev !errors in
  {
    wname = w.name;
    correct = errors = [];
    attempted = w.n;
    failed = (if errors = [] then 0 else w.n);
    metrics;
    errors;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let json_string s = "\"" ^ N.escape s ^ "\""

let print_result r =
  Printf.printf "\n== %s ==\n" r.wname;
  Printf.printf "  %-32s %-6s %14s %14s %14s %7s\n" "metric" "unit" "median" "min" "max" "samples";
  List.iter
    (fun m ->
      match sorted m.samples with
      | [||] -> Printf.printf "  %-32s %-6s %14s\n" m.mname m.unit_ "(no sample)"
      | a ->
          Printf.printf "  %-32s %-6s %14.6g %14.6g %14.6g %7d\n" m.mname m.unit_ (value m) a.(0)
            a.(Array.length a - 1) (Array.length a))
    r.metrics;
  List.iter (fun e -> Printf.eprintf "ladder: %s FAILED: %s\n%!" r.wname e) r.errors

(* run-cluster's shape at n = 10^6 jobs, m = 10^3 machines is not run:
   the flat core keeps per-(machine, job) columns, whose size scales with
   n*m.  It is recorded with that reason and the host's free memory; its
   memory need was never measured here, so none is given. *)
let unmeasurable selected =
  if List.exists (fun w -> match w.mode with Batch -> true | Serve _ | Paced _ | Split -> false) selected then
    [
      Printf.sprintf
        "run-cluster at n=10^6, m=10^3: not run; the flat core's per-(machine, job) columns scale with n*m \
         (10^9 cells); MemAvailable is %.1f GiB"
        (mem_available_gib ());
    ]
  else []

(* The --out file: every metric of every workload with its spread. *)
let write_out ~path ~seed ~quick ~trace ~unmeasurable results =
  let metric_json m =
    let a = sorted m.samples in
    let k = Array.length a in
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"min\": %s, \"max\": %s, \"samples\": %d}"
      (json_string m.mname) (N.float_repr (value m)) (json_string m.unit_)
      (N.float_repr (if k = 0 then nan else a.(0)))
      (N.float_repr (if k = 0 then nan else a.(k - 1)))
      k
  in
  let workload_json r =
    Printf.sprintf "    %s: {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {\n      %s}}"
      (json_string r.wname) r.correct r.attempted r.failed
      (String.concat ",\n      " (List.map metric_json r.metrics))
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\"schema\": \"ladder/1\", \"seed\": %d, \"quick\": %b, \"trace\": %d, \"unmeasurable\": [%s], \
         \"workloads\": {\n%s\n}}\n"
        seed quick trace
        (String.concat ", " (List.map json_string unmeasurable))
        (String.concat ",\n" (List.map workload_json results)))

(* The last line: with one workload the metric names are bare, with
   several they are prefixed by the workload. *)
let final_line results =
  let prefix r = match results with [ _ ] -> "" | _ -> r.wname ^ "." in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string (prefix r ^ m.mname))
              (N.float_repr (value m)) (json_string m.unit_))
          r.metrics)
      results
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (List.for_all (fun (r : result) -> r.correct) results)
    (List.fold_left (fun acc (r : result) -> acc + r.attempted) 0 results)
    (List.fold_left (fun acc (r : result) -> acc + r.failed) 0 results)
    (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> N.parse s

(* [(name, (better, bound))] of one metric list of BENCHMARK.json. *)
let spec_metrics spec key =
  match N.member key spec with
  | Some (N.Jarr l) ->
      List.filter_map
        (fun m ->
          match (N.member "name" m, N.member "better" m, N.member "bound" m) with
          | Some (N.Jstr name), Some (N.Jstr better), bound ->
              Some (name, (better, match bound with Some (N.Jnum b) -> b | _ -> nan))
          | _ -> None)
        l
  | _ -> []

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ladder: " ^ s); exit 2) fmt
let load path = match load_json path with Ok j -> j | Error e -> die "%s: %s" path e

(* BENCHMARK.json, read from the current directory before anything runs:
   without it no run could be checked, so its absence is a usage error. *)
let bench_file = "BENCHMARK.json"

(* Every metric BENCHMARK.json names must be measured; a result that
   lacks one, or reads a non-finite value, fails. *)
let check_against_spec spec ~trace r =
  let names = List.map fst (spec_metrics spec (if trace = 1 then "per_layer" else "end_to_end")) in
  let missing = List.filter (fun n -> not (List.exists (fun m -> String.equal m.mname n) r.metrics)) names in
  let non_finite = List.filter (fun m -> not (Float.is_finite (value m))) r.metrics in
  let errors =
    List.map (fun n -> Printf.sprintf "metric %s named in %s was not measured" n bench_file) missing
    @ List.map (fun m -> Printf.sprintf "metric %s is not finite" m.mname) non_finite
  in
  if errors = [] then r else { r with correct = false; failed = r.attempted; errors = r.errors @ errors }

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_runs a b =
  let spec = load bench_file and ja = load a and jb = load b in
  let e2e = spec_metrics spec "end_to_end" in
  let workloads j = match N.member "workloads" j with Some (N.Jobj l) -> l | _ -> die "no workloads in a run file" in
  let lookup wl name =
    match Option.bind (N.member "metrics" wl) (N.member name) with
    | Some m -> ( match N.member "value" m with Some (N.Jnum v) -> Some v | _ -> None)
    | None -> None
  in
  let failures = ref 0 in
  Printf.printf "%-18s %-16s %14s %14s %9s %7s  %s\n" "workload" "metric" "A" "B" "change" "bound" "verdict";
  List.iter
    (fun (wname, wa) ->
      match List.assoc_opt wname (workloads jb) with
      | None ->
          incr failures;
          Printf.printf "%-18s missing from %s  FAIL\n" wname b
      | Some wb ->
          List.iter
            (fun (name, (better, bound)) ->
              match (lookup wa name, lookup wb name) with
              | Some va, Some vb ->
                  let change = (vb -. va) /. va in
                  let worse = if String.equal better "lower" then change else -.change in
                  let ok = worse <= bound in
                  if not ok then incr failures;
                  Printf.printf "%-18s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n" wname name va vb
                    (100. *. change) (100. *. bound)
                    (if ok then "PASS" else "FAIL")
              | _ ->
                  incr failures;
                  Printf.printf "%-18s %-16s missing  FAIL\n" wname name)
            e2e)
    (workloads ja);
  exit (if !failures = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let work_root = ".ladder-work"

(* The rejsched dune builds beside this executable, in the same profile:
   _build/default/bin/ for _build/default/bench/ladder/ladder.exe. *)
let rejsched =
  Filename.concat (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name))) "bin/rejsched.exe"

let with_workdir f =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  let dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let main () =
  let workload = ref None and seed = ref 1 and seconds = ref None and trace = ref 0 in
  let quick = ref false and out = ref None in

  let anon = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME one workload (default: all)");
      ("--seed", Arg.Set_int seed, "S workload seed (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "T keep repeating while a round fits in T seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0, default) or per-layer metrics (1)");
      ("--layers", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--quick", Arg.Set quick, " every workload at a twentieth of its size");
      ("--out", Arg.String (fun s -> out := Some s), "FILE write every metric with its spread as JSON");
    ]
  in
  let usage = "ladder.exe [options] | ladder.exe compare A.json B.json" in
  Arg.parse specs (fun a -> anon := a :: !anon) usage;
  match List.rev !anon with
  | [ "compare"; a; b ] -> compare_runs a b
  | _ :: _ -> die "unexpected arguments; usage: %s" usage
  | [] ->
      if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
      let spec = load bench_file in
      if spec_metrics spec "end_to_end" = [] || spec_metrics spec "per_layer" = [] then
        die "%s names no end_to_end or no per_layer metrics" bench_file;
      if not (Sys.file_exists rejsched) then die "no rejsched binary at %s (build it first)" rejsched;
      let div = if !quick then quick_div else 1 in
      let scale w = { w with n = w.n / div } in
      let selected =
        match !workload with
        | None -> List.map scale all_workloads
        | Some name -> (
            match List.find_opt (fun w -> String.equal w.name name) all_workloads with
            | Some w -> [ scale w ]
            | None ->
                die "unknown workload %s (one of: %s)" name
                  (String.concat ", " (List.map (fun w -> w.name) all_workloads)))
      in
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let seed = !seed in
      let results =
        with_workdir (fun dir ->
            let prepare_one w =
              let t0 = now () in
              let p = prepare ~rejsched ~dir ~seed w in
              Printf.eprintf "ladder: %s inputs and batch reference: %.2f s\n%!" w.name (now () -. t0);
              p
            in
            if !trace = 1 then
              let budget = Option.map (fun s -> s /. float_of_int (List.length selected)) !seconds in
              List.map
                (fun w ->
                  layers ~rejsched ~dir ~seed ~budget (prepare_one w))
                selected
            else begin
              let states =
                List.map
                  (fun w ->
                    { p = prepare_one w; setup = []; reps = []; errors = []; attempted = 0; failed = 0 })
                  selected
              in
              run_rounds ~rejsched ~dir ~seed ~budget:!seconds states;
              List.map e2e_result states
            end)
      in
      let results = List.map (check_against_spec spec ~trace:!trace) results in
      List.iter print_result results;
      let unmeasurable = if !trace = 0 then unmeasurable selected else [] in
      List.iter (Printf.printf "\nunmeasurable: %s\n") unmeasurable;
      Option.iter (fun path -> write_out ~path ~seed ~quick:!quick ~trace:!trace ~unmeasurable results) !out;
      print_endline (final_line results);
      exit (if List.for_all (fun r -> r.correct) results then 0 else 1)

let () = main ()
