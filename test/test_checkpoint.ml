(* Checkpoint/restore layer.

   Two halves: the Snapshot container codec (qcheck round-trip, plus
   every corruption mode must come back as a structured error, never an
   exception and never a silently-wrong payload), and the semantic
   guarantee — suspending a session at *every* feed boundary, wrapping /
   unwrapping / thawing it, and finishing the stream must reproduce the
   uninterrupted run byte-for-byte, oracle-audited on both sides. *)

open Sched_model
open Sched_sim
module P = Sched_experiments.Policy_registry
module Corpus = Sched_fuzz.Corpus

(* --- container codec --------------------------------------------------- *)

let arb_blob =
  (* Arbitrary bytes, including NULs and high bits — the payload is
     marshaled binary, not text. *)
  QCheck.(string_gen_of_size Gen.(int_range 0 512) Gen.(map Char.chr (int_range 0 255)))

let test_roundtrip =
  QCheck.Test.make ~name:"wrap |> unwrap round-trips policy and payload" ~count:200
    QCheck.(pair arb_blob arb_blob)
    (fun (policy, payload) ->
      match Snapshot.unwrap (Snapshot.wrap ~policy ~payload) with
      | Ok (p, q) -> String.equal p policy && String.equal q payload
      | Error _ -> false)
  |> QCheck_alcotest.to_alcotest

let test_bitflip =
  QCheck.Test.make ~name:"any single byte flip is detected" ~count:300
    QCheck.(triple arb_blob small_nat (int_range 1 255))
    (fun (payload, pos, delta) ->
      let snap = Snapshot.wrap ~policy:"flow-reject" ~payload in
      let pos = pos mod String.length snap in
      let bad = Bytes.of_string snap in
      Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor delta));
      match Snapshot.unwrap (Bytes.to_string bad) with
      | Error _ -> true
      | Ok _ -> false)
  |> QCheck_alcotest.to_alcotest

let test_truncation_fails_closed () =
  let snap = Snapshot.wrap ~policy:"greedy-spt" ~payload:"some frozen state bytes" in
  for len = 0 to String.length snap - 1 do
    match Snapshot.unwrap (String.sub snap 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of length %d unwrapped successfully" len
  done;
  (match Snapshot.unwrap (snap ^ "x") with
  | Error Snapshot.Truncated -> ()
  | Error e -> Alcotest.failf "trailing garbage: wrong error %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing garbage unwrapped successfully");
  match Snapshot.unwrap "not a snapshot at all" with
  | Error Snapshot.Bad_magic -> ()
  | Error e -> Alcotest.failf "alien file: wrong error %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "alien file unwrapped successfully"

(* --- suspend/resume ---------------------------------------------------- *)

let check_f what a b =
  if not (Float.equal a b) then Alcotest.failf "%s: %.17g <> %.17g" what a b

let compare_live what (lb : Driver.live_metrics) (lf : Driver.live_metrics) =
  let open Metrics in
  check_f (what ^ ": flow.total") lb.Driver.flow.total lf.Driver.flow.total;
  check_f (what ^ ": flow.weighted") lb.Driver.flow.weighted lf.Driver.flow.weighted;
  check_f (what ^ ": energy") lb.Driver.energy lf.Driver.energy;
  check_f (what ^ ": makespan") lb.Driver.makespan lf.Driver.makespan;
  Alcotest.(check int)
    (what ^ ": rejection.count")
    lb.Driver.rejection.count lf.Driver.rejection.count;
  check_f (what ^ ": rejection.weight") lb.Driver.rejection.weight lf.Driver.rejection.weight

(* Run the stream with a freeze -> wrap -> unwrap -> thaw pause after
   [cut] jobs (draining up to the last fed release first, as the serve
   loop does before writing its checkpoint). *)
let resumed_run ~check (e : P.entry) instance ~cut =
  let jobs = Instance.jobs_by_release instance in
  let n = Array.length jobs in
  let s =
    e.P.open_stream ~check ~name:instance.Instance.name
      ~machines:instance.Instance.machines ()
  in
  for i = 0 to cut - 1 do
    s.P.ss_feed jobs.(i)
  done;
  if cut > 0 then s.P.ss_drain_until jobs.(cut - 1).Job.release;
  let wrapped = Snapshot.wrap ~policy:e.P.name ~payload:(s.P.ss_freeze ()) in
  let payload =
    match Snapshot.unwrap wrapped with
    | Ok (name, p) ->
        Alcotest.(check string) "policy name rides the container" e.P.name name;
        p
    | Error err -> Alcotest.failf "unwrap of a fresh snapshot failed: %s" (Snapshot.error_to_string err)
  in
  let r = e.P.restore_stream payload in
  Alcotest.(check int) "fed count survives the thaw" cut (r.P.ss_fed ());
  for i = cut to n - 1 do
    r.P.ss_feed jobs.(i)
  done;
  r.P.ss_close ()

let check_all_boundaries ~what (e : P.entry) instance =
  let check = not (Instance.has_deadlines instance) in
  let sb, lb = e.P.run ~check instance in
  let cb = Serialize.schedule_to_canonical_string sb in
  let n = Array.length (Instance.jobs_by_release instance) in
  for cut = 0 to n do
    let what = Printf.sprintf "%s/cut=%d" what cut in
    match resumed_run ~check e instance ~cut with
    | Some sf, lf ->
        let cf = Serialize.schedule_to_canonical_string sf in
        if not (String.equal cb cf) then
          Alcotest.failf "%s: resumed schedule diverges:\n--- batch ---\n%s\n--- resumed ---\n%s"
            what cb cf;
        compare_live what lb lf
    | None, _ -> Alcotest.failf "%s: no schedule from the resumed session" what
  done

(* Stateful policies are where a checkpoint can silently lose decisions:
   flow-reject carries fractional-flow accumulators, immediate-largest a
   rejection budget counter, restart-spt per-job restart marks.  Suspend
   at every boundary of a tie-heavy corpus case and a weighted random
   instance under each. *)
let test_suspend_every_boundary_corpus () =
  List.iter
    (fun (c : Corpus.case) ->
      let e = Option.get (P.find c.Corpus.policy) in
      check_all_boundaries
        ~what:(Printf.sprintf "%s/%s" c.Corpus.name e.P.name)
        e c.Corpus.instance)
    (List.filteri (fun k _ -> k < 2) (Corpus.seeds ()))

let test_suspend_every_boundary_stateful () =
  let instance = Test_util.random_instance ~weighted:true ~seed:5 ~n:14 ~m:3 () in
  List.iter
    (fun name ->
      let e = Option.get (P.find name) in
      check_all_boundaries ~what:(Printf.sprintf "random/%s" name) e instance)
    [ "flow-reject"; "flow-reject-weighted"; "immediate-largest"; "restart-spt" ]

let test_wrong_policy_thaw_rejected () =
  let e = Option.get (P.find "greedy-spt") in
  let other = Option.get (P.find "greedy-fifo") in
  let s = e.P.open_stream ~machines:(Machine.fleet 2) () in
  let payload = s.P.ss_freeze () in
  match other.P.restore_stream payload with
  | _ -> Alcotest.fail "thaw under the wrong policy succeeded"
  | exception Invalid_argument _ -> ()

let suite =
  [
    test_roundtrip;
    test_bitflip;
    Alcotest.test_case "truncation / garbage / alien files fail closed" `Quick
      test_truncation_fails_closed;
    Alcotest.test_case "suspend at every boundary, corpus cases" `Slow
      test_suspend_every_boundary_corpus;
    Alcotest.test_case "suspend at every boundary, stateful policies" `Slow
      test_suspend_every_boundary_stateful;
    Alcotest.test_case "thaw under the wrong policy rejected" `Quick
      test_wrong_policy_thaw_rejected;
  ]
