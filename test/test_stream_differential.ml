(* Stream-vs-batch differential layer: feeding the same jobs through an
   incremental Driver.Session — in arrival batches of 1, of 7 and of all
   at once — must produce a schedule byte-identical (canonical
   serialization) to the one-shot batch run, with bit-identical live
   metrics, for every corpus case x registry policy, with the oracle
   auditing both sides wherever the instance carries no deadlines.
   Retire-mode passes over the same stream, in batches of 1 and of 7,
   recycle job slots and never materialize a schedule, and must still
   agree on the live metrics and on every decision line. *)

open Sched_model
open Sched_sim
module P = Sched_experiments.Policy_registry
module Corpus = Sched_fuzz.Corpus

(* Bit-identical float equality: the session *is* the batch driver's
   loop, so even the metric accumulation order is the same — exact
   equality, not tolerance. *)
let check_f what a b =
  if not (Float.equal a b) then
    Alcotest.failf "%s: batch %.17g <> stream %.17g" what a b

let compare_live what (lb : Driver.live_metrics) (lf : Driver.live_metrics) =
  let open Metrics in
  check_f (what ^ ": flow.total") lb.Driver.flow.total lf.Driver.flow.total;
  check_f (what ^ ": flow.weighted") lb.Driver.flow.weighted lf.Driver.flow.weighted;
  check_f
    (what ^ ": flow.total_with_rejected")
    lb.Driver.flow.total_with_rejected lf.Driver.flow.total_with_rejected;
  check_f
    (what ^ ": flow.weighted_with_rejected")
    lb.Driver.flow.weighted_with_rejected lf.Driver.flow.weighted_with_rejected;
  check_f (what ^ ": flow.max_flow") lb.Driver.flow.max_flow lf.Driver.flow.max_flow;
  check_f (what ^ ": flow.mean_flow") lb.Driver.flow.mean_flow lf.Driver.flow.mean_flow;
  check_f (what ^ ": flow.max_stretch") lb.Driver.flow.max_stretch lf.Driver.flow.max_stretch;
  check_f (what ^ ": energy") lb.Driver.energy lf.Driver.energy;
  check_f (what ^ ": makespan") lb.Driver.makespan lf.Driver.makespan;
  Alcotest.(check int)
    (what ^ ": rejection.count")
    lb.Driver.rejection.count lf.Driver.rejection.count;
  check_f (what ^ ": rejection.fraction") lb.Driver.rejection.fraction lf.Driver.rejection.fraction;
  check_f (what ^ ": rejection.weight") lb.Driver.rejection.weight lf.Driver.rejection.weight;
  check_f
    (what ^ ": rejection.weight_fraction")
    lb.Driver.rejection.weight_fraction lf.Driver.rejection.weight_fraction;
  Alcotest.(check int)
    (what ^ ": rejection.mid_run")
    lb.Driver.rejection.mid_run lf.Driver.rejection.mid_run

(* Stream the instance's jobs in [chunk]-sized arrival batches, draining
   up to the last fed release after each batch — the serve loop's exact
   cadence. *)
let stream_run ?trace ~check ~retire (e : P.entry) instance ~chunk =
  let s =
    e.P.open_stream ?trace ~check ~retire ~name:instance.Instance.name
      ~machines:instance.Instance.machines ()
  in
  let jobs = Instance.jobs_by_release instance in
  let n = Array.length jobs in
  let k = ref 0 in
  while !k < n do
    let stop = min n (!k + chunk) in
    for i = !k to stop - 1 do
      s.P.ss_feed jobs.(i)
    done;
    s.P.ss_drain_until jobs.(stop - 1).Job.release;
    Alcotest.(check int) "fed count tracks the feed" stop (s.P.ss_fed ());
    k := stop
  done;
  s.P.ss_close ()

let check_stream ~what (e : P.entry) instance =
  (* Deadline-bearing instances are compared un-audited, exactly as the
     goldens are generated: the in-driver audit has no check_deadlines
     knob and most registry policies ignore deadlines. *)
  let check = not (Instance.has_deadlines instance) in
  let tb = Trace.create () in
  let sb, lb = e.P.run ~recorder:(Trace.recorder tb) ~check instance in
  let decisions = Test_util.trace_ndjson tb in
  let cb = Serialize.schedule_to_canonical_string sb in
  let n = Array.length (Instance.jobs_by_release instance) in
  List.iter
    (fun chunk ->
      let what = Printf.sprintf "%s/batch=%d" what chunk in
      match stream_run ~check ~retire:false e instance ~chunk with
      | Some sf, lf ->
          let cf = Serialize.schedule_to_canonical_string sf in
          if not (String.equal cb cf) then
            Alcotest.failf "%s: streamed schedule diverges from batch:\n--- batch ---\n%s\n--- stream ---\n%s"
              what cb cf;
          compare_live what lb lf
      | None, _ -> Alcotest.failf "%s: no schedule from an un-retired session" what)
    [ 1; 7; max 1 n ];
  (* Retirement drops the schedule and hands settled jobs' slots to later
     arrivals, but must not perturb a single decision or metric bit: the
     aggregates accumulate on the same code path, and a policy state left
     behind in a reused slot would show as a diverging decision. *)
  List.iter
    (fun chunk ->
      let what = Printf.sprintf "%s/retire/batch=%d" what chunk in
      let tr = Trace.create () in
      match stream_run ~trace:tr ~check:false ~retire:true e instance ~chunk with
      | None, lr ->
          compare_live what lb lr;
          let df = Test_util.trace_ndjson tr in
          if not (String.equal decisions df) then
            Alcotest.failf
              "%s: retired decisions diverge from batch:\n--- batch ---\n%s\n--- retired ---\n%s"
              what decisions df
      | Some _, _ -> Alcotest.failf "%s: retire mode materialized a schedule" what)
    [ 1; 7 ]

(* Every corpus case under every registry policy: the corpus is the
   fuzzer's distilled tie-heavy / restricted / adversarial corners,
   exactly where a horizon or ordering bug in the session would show. *)
let test_corpus_all_policies () =
  let cases = Corpus.seeds () in
  Alcotest.(check int) "one seed per checked-in case"
    (List.length (Test_util.corpus_files ()))
    (List.length cases);
  List.iter
    (fun (c : Corpus.case) ->
      List.iter
        (fun (e : P.entry) ->
          check_stream ~what:(Printf.sprintf "%s/%s" c.Corpus.name e.P.name) e c.Corpus.instance)
        P.all)
    cases

(* The dyadic random generator as an independent instance source,
   policies round-robined. *)
let test_random_instances () =
  let entries = Array.of_list P.all in
  for seed = 0 to 19 do
    let weighted = seed mod 2 = 1 and restricted = seed mod 3 = 0 in
    let instance =
      Test_util.random_instance ~weighted ~restricted ~seed ~n:(20 + (7 * seed))
        ~m:(1 + (seed mod 4)) ()
    in
    let e = entries.(seed mod Array.length entries) in
    check_stream ~what:(Printf.sprintf "random/s%d/%s" seed e.P.name) e instance
  done

(* Feed-order discipline: the session must reject a job released behind
   the drained horizon and a (release, id) pair that does not strictly
   increase — silently accepting either would quietly break the
   byte-identity argument the two tests above pin. *)
let test_feed_order_enforced () =
  let e = Option.get (P.find "greedy-spt") in
  let machines = Machine.fleet 2 in
  let mk id release = Job.create ~id ~release ~sizes:[| 1.0; 1.0 |] () in
  let s = e.P.open_stream ~machines () in
  s.P.ss_feed (mk 0 1.0);
  Alcotest.check_raises "duplicate (release, id) rejected"
    (Invalid_argument
       "Driver.Session: job 0 at 1 breaks the strictly increasing (release, id) feed order")
    (fun () -> s.P.ss_feed (mk 0 1.0));
  let s2 = e.P.open_stream ~machines () in
  s2.P.ss_feed (mk 0 5.0);
  s2.P.ss_drain_until 5.0;
  Alcotest.check_raises "feed behind the drained horizon rejected"
    (Invalid_argument "Driver.Session: job 1 released at 2 behind the drained horizon 5")
    (fun () -> s2.P.ss_feed (mk 1 2.0));
  (* A retiring session forgets a settled job's slot, not its id: job 5,
     settled, fed again at a later release passes the strictly
     increasing (release, id) check and must still be refused. *)
  let s3 = e.P.open_stream ~retire:true ~machines () in
  s3.P.ss_feed (mk 5 0.0);
  s3.P.ss_drain_until 5.0;
  Alcotest.(check (float 0.)) "job 5 has settled" 1.0
    (s3.P.ss_live ()).Driver.flow.Metrics.total;
  Alcotest.check_raises "settled id fed again rejected"
    (Invalid_argument "Flat_state.add_job: job 5 already added")
    (fun () -> s3.P.ss_feed (mk 5 10.0))

let suite =
  [
    ("corpus x all policies x batch {1,7,n}, byte-identical", `Slow, test_corpus_all_policies);
    ("dyadic random instances, byte-identical", `Slow, test_random_instances);
    ("feed order discipline enforced", `Quick, test_feed_order_enforced);
  ]
