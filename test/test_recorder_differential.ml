(* Recorder differential layer: attaching a flight recorder must be
   strictly observational.  For every corpus case x registry policy, the
   canonical schedule dump with a recorder attached must be
   byte-identical to the recorder-off run, and both runs must pass the
   registry audit.  The recorder's own contents
   are pinned by the corpus x policy goldens (test/golden/). *)

open Sched_model
module P = Sched_experiments.Policy_registry
module Corpus = Sched_fuzz.Corpus
module Rec = Sched_obs.Recorder
module TE = Sched_sim.Trace_export

let canonical s = Serialize.schedule_to_canonical_string s

let check_case ~what (e : P.entry) instance =
  let audited ?recorder () =
    let s, lm = e.P.run ?recorder instance in
    Test_util.assert_audit ~what e s lm;
    canonical s
  in
  let off = audited () in
  let rc = Rec.create ~capacity:4096 () in
  let on = audited ~recorder:rc () in
  if not (String.equal off on) then Alcotest.failf "%s: recorder perturbed the schedule" what;
  Alcotest.(check bool) (what ^ ": events recorded") true (Rec.total rc > 0)

let test_corpus_all_policies () =
  List.iter
    (fun (c : Corpus.case) ->
      List.iter
        (fun (e : P.entry) ->
          check_case ~what:(Printf.sprintf "%s/%s" c.Corpus.name e.P.name) e c.Corpus.instance)
        P.all)
    (Corpus.seeds ())

(* A ring too small for the run must wrap, keep exactly the newest
   entries of the full recording, and still leave the schedule untouched
   — the forensics configuration (small ring, long run) is exactly this
   shape. *)
let test_wrapping_ring () =
  let inst = Test_util.random_instance ~seed:29 ~n:120 ~m:3 () in
  let entry = match P.find "flow-reject" with Some e -> e | None -> Alcotest.fail "registry" in
  let base = canonical (fst (entry.P.run inst)) in
  let rc_full = Rec.create ~capacity:4096 () in
  ignore (entry.P.run ~recorder:rc_full inst);
  let rc = Rec.create ~capacity:16 () in
  let s = fst (entry.P.run ~recorder:rc inst) in
  Alcotest.(check string) "schedule untouched" base (canonical s);
  Alcotest.(check bool) "ring wrapped" true (Rec.dropped rc > 0);
  Alcotest.(check int) "drop count" (Rec.total rc_full - Rec.capacity rc) (Rec.dropped rc);
  Alcotest.(check string) "wrapped tail = newest entries of the full recording"
    (TE.recorder_to_ndjson ~last:(Rec.capacity rc) rc_full)
    (TE.recorder_to_ndjson rc)

let suite =
  [
    Alcotest.test_case "corpus x policies, recorder on/off" `Quick test_corpus_all_policies;
    Alcotest.test_case "wrapping ring keeps the newest entries" `Quick test_wrapping_ring;
  ]
