(* Property tests for the driver's data structures: Flat_state's
   instance mirror, the int-encoded event keys, and the two heaps —
   each checked against a model or an algebraic law. *)

open Sched_model
open Sched_sim
module Rng = Sched_stats.Rng
module Key = Pqueue.Events.Key

let qtest t = QCheck_alcotest.to_alcotest t

(* --- of_instance / accessor round-trip ---------------------------------- *)

let random_instance_of seed =
  let weighted = seed land 1 = 1 and restricted = seed mod 3 = 0 in
  Test_util.random_instance ~weighted ~restricted ~seed ~n:(5 + (seed mod 40))
    ~m:(1 + (seed mod 5)) ()

let prop_of_instance_round_trip =
  QCheck.Test.make ~name:"of_instance mirrors every job/machine column" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let instance = random_instance_of seed in
      let fs = Flat_state.of_instance instance in
      let n = Instance.n instance and m = Instance.m instance in
      assert (Flat_state.n fs = n);
      assert (Flat_state.m fs = m);
      assert (Float.equal (Flat_state.total_weight fs) (Instance.total_weight instance));
      Array.iter
        (fun (j : Job.t) ->
          let id = j.Job.id in
          assert ((Flat_state.job fs id).Job.id = id);
          assert (Float.equal (Flat_state.release fs id) j.Job.release);
          assert (Float.equal (Flat_state.weight fs id) j.Job.weight);
          assert (Float.equal (Flat_state.min_size fs id) (Job.min_size j));
          for i = 0 to m - 1 do
            let p = Job.size j i in
            assert (Float.equal (Flat_state.size fs ~machine:i ~job:id) p);
            assert (Flat_state.eligible fs ~machine:i ~job:id = Job.eligible j i);
            assert (
              Float.equal (Flat_state.density fs ~machine:i ~job:id) (j.Job.weight /. p))
          done;
          (* Before any event, every job is unreleased. *)
          assert (Flat_state.loc fs id = Flat_state.loc_unreleased))
        (Instance.jobs_by_release instance);
      for i = 0 to m - 1 do
        let mc = Instance.machine instance i in
        assert (Float.equal (Flat_state.mach_speed fs i) mc.Machine.speed);
        assert (Float.equal (Flat_state.alpha fs i) mc.Machine.alpha)
      done;
      Flat_state.invariant fs)

(* --- loc code algebra --------------------------------------------------- *)

let prop_loc_codes =
  QCheck.Test.make ~name:"loc pending/running codes decode to their machine" ~count:200
    QCheck.(int_bound 100_000)
    (fun machine ->
      let p = Flat_state.loc_pending ~machine and r = Flat_state.loc_running ~machine in
      Flat_state.loc_is_pending p
      && (not (Flat_state.loc_is_running p))
      && Flat_state.loc_is_running r
      && (not (Flat_state.loc_is_pending r))
      && Flat_state.loc_machine p = machine
      && Flat_state.loc_machine r = machine
      && p <> r
      && (not (Flat_state.loc_is_pending Flat_state.loc_unreleased))
      && (not (Flat_state.loc_is_running Flat_state.loc_settled)))

(* --- event-key encode/decode bijection ---------------------------------- *)

(* QCheck's int_bound caps below the 40/42-bit ranges, so wide values are
   composed from two independent 20/22-bit halves — uniform over the whole
   encodable range. *)
let wide_seq = QCheck.(map (fun (hi, lo) -> (hi lsl 20) lor lo) (pair (int_bound 0xFFFFF) (int_bound 0xFFFFF)))

let wide_epoch =
  QCheck.(map (fun (hi, lo) -> (hi lsl 20) lor lo) (pair (int_bound 0x3FFFFF) (int_bound 0xFFFFF)))

let prop_tag_round_trip =
  QCheck.Test.make ~name:"tag encode/decode bijection over the full seq range" ~count:500
    wide_seq
    (fun seq ->
      let at = Key.arrival_tag ~seq and ft = Key.finish_tag ~seq in
      Key.is_arrival ~tag:at
      && (not (Key.is_arrival ~tag:ft))
      && Key.seq_of ~tag:at = seq
      && Key.seq_of ~tag:ft = seq
      && at <> ft)

let prop_payload_round_trip =
  QCheck.Test.make ~name:"finish payload encode/decode bijection" ~count:500
    QCheck.(pair (int_bound 0xFFFFF) wide_epoch)
    (fun (machine, epoch) ->
      let payload = Key.finish_payload ~machine ~epoch in
      Key.machine_of ~payload = machine && Key.epoch_of ~payload = epoch)

let test_key_edges () =
  (* Extremes of every encodable range survive the round trip... *)
  List.iter
    (fun seq ->
      Alcotest.(check int) "seq" seq (Key.seq_of ~tag:(Key.arrival_tag ~seq));
      Alcotest.(check int) "seq" seq (Key.seq_of ~tag:(Key.finish_tag ~seq)))
    [ 0; 1; Key.max_seq ];
  List.iter
    (fun (machine, epoch) ->
      let payload = Key.finish_payload ~machine ~epoch in
      Alcotest.(check int) "machine" machine (Key.machine_of ~payload);
      Alcotest.(check int) "epoch" epoch (Key.epoch_of ~payload))
    [ (0, 0); (Key.max_machine, 0); (0, Key.max_epoch); (Key.max_machine, Key.max_epoch) ];
  (* ...and one past each raises. *)
  let must_raise what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted an out-of-range value" what
  in
  must_raise "finish_tag" (fun () -> Key.finish_tag ~seq:(Key.max_seq + 1));
  must_raise "arrival_tag" (fun () -> Key.arrival_tag ~seq:(Key.max_seq + 1));
  must_raise "finish_tag neg" (fun () -> Key.finish_tag ~seq:(-1));
  must_raise "payload machine" (fun () ->
      Key.finish_payload ~machine:(Key.max_machine + 1) ~epoch:0);
  must_raise "payload epoch" (fun () ->
      Key.finish_payload ~machine:0 ~epoch:(Key.max_epoch + 1))

(* --- Key.compare is a total order --------------------------------------- *)

(* Dyadic keys from a tiny grid (plus -0.) force heavy key collisions so the
   tag leg of the order actually gets exercised. *)
let ev_arb =
  QCheck.(
    map
      (fun (k8, tag, neg) ->
        let key = if neg && k8 = 0 then -0. else float_of_int (k8 - 4) /. 4. in
        (key, tag))
      (triple (int_bound 8) (int_bound 30) bool))

let sign x = compare x 0

let prop_key_total_order =
  QCheck.Test.make ~name:"Key.compare is a total order (tags decide ties)" ~count:2000
    QCheck.(triple ev_arb ev_arb ev_arb)
    (fun ((ka, ta), (kb, tb), (kc, tc)) ->
      let c (k1, t1) (k2, t2) = Key.compare k1 t1 k2 t2 in
      let ab = c (ka, ta) (kb, tb)
      and ba = c (kb, tb) (ka, ta)
      and bc = c (kb, tb) (kc, tc)
      and ac = c (ka, ta) (kc, tc) in
      (* reflexivity, antisymmetry, transitivity, tag-decides-totality *)
      c (ka, ta) (ka, ta) = 0
      && sign ab = -sign ba
      && (not (ab <= 0 && bc <= 0) || ac <= 0)
      && (not (ab >= 0 && bc >= 0) || ac >= 0)
      && (ab <> 0 || (Float.equal (Float.abs ka) (Float.abs kb) && ta = tb)))

let test_key_negative_zero () =
  (* Primitive float comparison: -0. and 0. are the same key, so the tag
     decides. *)
  Alcotest.(check int) "-0. = 0., tag decides" (-1) (Key.compare (-0.) 1 0. 2);
  Alcotest.(check int) "equal" 0 (Key.compare (-0.) 7 0. 7)

(* --- Events pops in Key.compare order: model check ----------------------- *)

let prop_events_sorted_model =
  QCheck.Test.make ~name:"Events pops in the (key, tag) order of a sorted list" ~count:300
    QCheck.(pair (list_of_size Gen.(int_bound 60) ev_arb) (int_bound 1_000_000))
    (fun (evs, salt) ->
      (* Tags must be unique while queued: replace the generated tag by a
         per-element rank drawn from a salted shuffle, keeping ties on keys. *)
      let evs = Array.of_list evs in
      let rng = Rng.create salt in
      let order = Array.init (Array.length evs) Fun.id in
      Rng.shuffle rng order;
      let q = Pqueue.Events.create () in
      let model = ref [] in
      Array.iteri
        (fun k i ->
          let key, _ = evs.(i) and tag = order.(k) in
          Pqueue.Events.push q ~key ~tag ~payload:k;
          model := (key, tag, k) :: !model)
        order;
      let sorted = List.sort (fun (k1, t1, _) (k2, t2, _) -> Key.compare k1 t1 k2 t2) !model in
      Pqueue.Events.size q = Array.length evs
      && List.for_all
           (fun (k, t, p) ->
             Pqueue.Events.pop q
             && Float.equal (Pqueue.Events.key q) k
             && Pqueue.Events.tag q = t
             && Pqueue.Events.payload q = p)
           sorted
      && Pqueue.Events.is_empty q)

(* --- Iheap agrees with a present-set model ------------------------------ *)

(* Named comparators (RJL002 trusts audited named functions, and the
   primitive float comparisons are deliberate: this is the driver's
   comparison semantics). *)
let keyed_less (keys : float array) a b =
  let ka = keys.(a) and kb = keys.(b) in
  if ka < kb then true else if ka > kb then false else a < b

let int_less (a : int) (b : int) = a < b

let prop_iheap_model =
  QCheck.Test.make ~name:"Iheap min_id/iter/invariant agree with a present-set model"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let rng = Rng.create salt in
      let nids = 2 + Rng.int rng 40 in
      (* Keys from a coarse dyadic grid: collisions are the interesting case. *)
      let keys = Array.init nids (fun _ -> float_of_int (Rng.int rng 8) /. 4.) in
      let less = keyed_less keys in
      let h = Pqueue.Iheap.create ~less () in
      let present = Array.make nids false in
      let agrees () =
        let visits = Array.make nids 0 in
        Pqueue.Iheap.iter h ~f:(fun id -> visits.(id) <- visits.(id) + 1);
        let expected_min = ref (-1) and count = ref 0 in
        Array.iteri
          (fun id p ->
            if p then begin
              incr count;
              if !expected_min < 0 || less id !expected_min then expected_min := id
            end)
          present;
        let ok = ref (Pqueue.Iheap.size h = !count) in
        Array.iteri
          (fun id p ->
            if visits.(id) <> (if p then 1 else 0) || Pqueue.Iheap.mem h ~id <> p then
              ok := false)
          present;
        !ok && Pqueue.Iheap.min_id h = !expected_min && Pqueue.Iheap.invariant h
      in
      let steps = 30 + Rng.int rng 200 in
      let ok = ref (agrees ()) in
      for _ = 1 to steps do
        let id = Rng.int rng nids in
        if present.(id) then begin
          assert (Pqueue.Iheap.remove h ~id);
          present.(id) <- false
        end
        else begin
          Pqueue.Iheap.add h ~id;
          present.(id) <- true
        end;
        if not (agrees ()) then ok := false
      done;
      !ok)

let test_iheap_errors () =
  let h = Pqueue.Iheap.create ~less:int_less () in
  Pqueue.Iheap.add h ~id:3;
  (match Pqueue.Iheap.add h ~id:3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate add accepted");
  (match Pqueue.Iheap.add h ~id:(-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative id accepted");
  Alcotest.(check bool) "absent remove" false (Pqueue.Iheap.remove h ~id:7);
  Alcotest.(check bool) "present remove" true (Pqueue.Iheap.remove h ~id:3);
  Alcotest.(check int) "empty min" (-1) (Pqueue.Iheap.min_id h)

(* --- Flat_state pending aggregates pin to zero --------------------------- *)

let test_pending_zero_pin () =
  let instance =
    Test_util.instance ~machines:2 [ (0., [| 0.25; 0.5 |]); (0., [| 1.25; 0.75 |]) ]
  in
  let fs = Flat_state.of_instance instance in
  Flat_state.pend_add fs 0 0;
  Flat_state.pend_add fs 0 1;
  Alcotest.(check int) "count" 2 (Flat_state.pend_count fs 0);
  Alcotest.(check (float 0.)) "work" 1.5 (Flat_state.pend_work fs 0);
  Alcotest.(check bool) "remove" true (Flat_state.pend_remove fs 0 1);
  Alcotest.(check bool) "remove" true (Flat_state.pend_remove fs 0 0);
  (* Emptying the queue pins work/weight to exactly 0., not a rounding
     residue. *)
  Alcotest.(check bool) "work pinned" true (Float.equal 0. (Flat_state.pend_work fs 0));
  Alcotest.(check bool) "weight pinned" true (Float.equal 0. (Flat_state.pend_weight fs 0));
  Alcotest.(check int) "empty heads" (-1) (Flat_state.head_spt fs 0);
  Alcotest.(check bool) "invariant" true (Flat_state.invariant fs)

let suite =
  [
    qtest prop_of_instance_round_trip;
    qtest prop_loc_codes;
    qtest prop_tag_round_trip;
    qtest prop_payload_round_trip;
    Alcotest.test_case "key range edges + out-of-range raises" `Quick test_key_edges;
    qtest prop_key_total_order;
    Alcotest.test_case "-0. keys equal 0. keys" `Quick test_key_negative_zero;
    qtest prop_events_sorted_model;
    qtest prop_iheap_model;
    Alcotest.test_case "Iheap id errors" `Quick test_iheap_errors;
    Alcotest.test_case "pending aggregates pin to zero" `Quick test_pending_zero_pin;
  ]
