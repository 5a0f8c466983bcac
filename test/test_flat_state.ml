(* Property tests for the driver's data structures: Flat_state's
   instance mirror, the int-encoded event keys, the two heaps and the
   pending sets' order-statistic index — each checked against a model or
   an algebraic law. *)

open Sched_model
open Sched_sim
module Rng = Sched_stats.Rng
module Key = Pqueue.Events.Key

let qtest t = QCheck_alcotest.to_alcotest t

(* The driver's construction: [of_stream] over the fleet, then one
   [add_job] per job.  Fed in id order, every job's slot is its id. *)
let state_of instance =
  let fs = Flat_state.of_stream ~machines:instance.Instance.machines in
  for id = 0 to Instance.n instance - 1 do
    Flat_state.add_job fs (Instance.job instance id)
  done;
  fs

(* --- of_stream + add_job / accessor round-trip ---------------------------- *)

let random_instance_of seed =
  let weighted = seed land 1 = 1 and restricted = seed mod 3 = 0 in
  Test_util.random_instance ~weighted ~restricted ~seed ~n:(5 + (seed mod 40))
    ~m:(1 + (seed mod 5)) ()

let prop_stream_round_trip =
  QCheck.Test.make ~name:"of_stream + add_job mirror every job/machine column" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let instance = random_instance_of seed in
      (* Fed in release order, as the driver feeds: slots number the jobs
         in feed order. *)
      let fs = Flat_state.of_stream ~machines:instance.Instance.machines in
      Array.iter (Flat_state.add_job fs) (Instance.jobs_by_release instance);
      let n = Instance.n instance and m = Instance.m instance in
      assert (Flat_state.n fs = n);
      assert (Flat_state.m fs = m);
      assert (Float.equal (Flat_state.total_weight fs) (Instance.total_weight instance));
      Array.iteri
        (fun k (j : Job.t) ->
          let id = j.Job.id in
          let s = Flat_state.slot_of fs id in
          assert (s = k && Flat_state.ext fs s = id);
          assert (Float.equal (Flat_state.release fs s) j.Job.release);
          assert (Float.equal (Flat_state.weight fs s) j.Job.weight);
          (* The job column holds the instance's own handle, whose cached
             summaries (min size, eligibility) the core reads. *)
          assert (Flat_state.job fs s == j);
          for i = 0 to m - 1 do
            let p = Job.size j i in
            assert (Float.equal (Flat_state.size fs ~machine:i ~job:s) p);
            assert (Flat_state.eligible fs ~machine:i ~job:s = Job.eligible j i)
          done;
          (* Before any event, every job is unreleased. *)
          assert (Flat_state.loc fs s = Flat_state.loc_unreleased))
        (Instance.jobs_by_release instance);
      for i = 0 to m - 1 do
        let mc = Instance.machine instance i in
        assert (Float.equal (Flat_state.mach_speed fs i) mc.Machine.speed)
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
      Test_util.shuffle rng order;
      let q = Pqueue.Events.create () in
      let model = ref [] in
      Array.iteri
        (fun k i ->
          let key, _ = evs.(i) and tag = order.(k) in
          Pqueue.Events.push q ~key ~tag ~payload:k;
          model := (key, tag, k) :: !model)
        order;
      let sorted = List.sort (fun (k1, t1, _) (k2, t2, _) -> Key.compare k1 t1 k2 t2) !model in
      List.for_all
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

let int_less () (a : int) (b : int) = a < b

let prop_iheap_model =
  QCheck.Test.make ~name:"Iheap min_id/iter/invariant agree with a present-set model"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let rng = Rng.create salt in
      let nids = 2 + Rng.int rng 40 in
      (* Keys from a coarse dyadic grid: collisions are the interesting case. *)
      let keys = Array.init nids (fun _ -> float_of_int (Rng.int rng 8) /. 4.) in
      let h = Pqueue.Iheap.create () and pos = Array.make nids (-1) in
      let present = Array.make nids false in
      let agrees () =
        let visits = Array.make nids 0 in
        Pqueue.Iheap.iter h ~f:(fun id -> visits.(id) <- visits.(id) + 1);
        let expected_min = ref (-1) and count = ref 0 in
        Array.iteri
          (fun id p ->
            if p then begin
              incr count;
              if !expected_min < 0 || keyed_less keys id !expected_min then expected_min := id
            end)
          present;
        let ok = ref (Pqueue.Iheap.size h = !count) in
        Array.iteri
          (fun id p ->
            if visits.(id) <> (if p then 1 else 0) || Pqueue.Iheap.mem h ~pos ~id <> p then
              ok := false)
          present;
        !ok
        && Pqueue.Iheap.min_id h = !expected_min
        && Pqueue.Iheap.invariant [| h |] ~less:keyed_less keys ~pos
      in
      let steps = 30 + Rng.int rng 200 in
      let ok = ref (agrees ()) in
      for _ = 1 to steps do
        let id = Rng.int rng nids in
        if present.(id) then begin
          assert (Pqueue.Iheap.remove h ~less:keyed_less keys ~pos ~id);
          present.(id) <- false
        end
        else begin
          Pqueue.Iheap.add h ~less:keyed_less keys ~pos ~id;
          present.(id) <- true
        end;
        if not (agrees ()) then ok := false
      done;
      !ok)

let test_iheap_errors () =
  let h = Pqueue.Iheap.create () and pos = Array.make 8 (-1) in
  Pqueue.Iheap.add h ~less:int_less () ~pos ~id:3;
  (match Pqueue.Iheap.add h ~less:int_less () ~pos ~id:3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate add accepted");
  (match Pqueue.Iheap.add h ~less:int_less () ~pos ~id:(-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative id accepted");
  (match Pqueue.Iheap.add h ~less:int_less () ~pos ~id:8 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "id outside the position table accepted");
  Alcotest.(check bool) "absent remove" false (Pqueue.Iheap.remove h ~less:int_less () ~pos ~id:7);
  Alcotest.(check bool) "present remove" true (Pqueue.Iheap.remove h ~less:int_less () ~pos ~id:3);
  Alcotest.(check int) "empty min" (-1) (Pqueue.Iheap.min_id h)

(* --- Flat_state pending aggregates pin to zero --------------------------- *)

let test_pending_zero_pin () =
  let instance =
    Test_util.instance ~machines:2 [ (0., [| 0.25; 0.5 |]); (0., [| 1.25; 0.75 |]) ]
  in
  let fs = state_of instance in
  let head i = Flat_state.pend_head fs i in
  Alcotest.(check (float 0.)) "empty head" infinity (head 0);
  Flat_state.pend_add fs 0 1;
  Alcotest.(check (float 0.)) "only job heads" 1.25 (head 0);
  Flat_state.pend_add fs 0 0;
  Alcotest.(check (float 0.)) "shorter job takes the head" 0.25 (head 0);
  Alcotest.(check (float 0.)) "other machine empty" infinity (head 1);
  Alcotest.(check int) "count" 2 (Flat_state.pend_count fs 0);
  Alcotest.(check (float 0.)) "work" 1.5 (Flat_state.pend_work fs 0);
  (* Machine 1's heaps share machine 0's position columns: they must not
     answer for a job pending on machine 0, nor take it a second time. *)
  Alcotest.(check bool) "remove on the wrong machine" false (Flat_state.pend_remove fs 1 0);
  (match Flat_state.pend_add fs 1 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a job pending on machine 0 was added to machine 1");
  Alcotest.(check int) "count kept" 2 (Flat_state.pend_count fs 0);
  Alcotest.(check (float 0.)) "work kept" 1.5 (Flat_state.pend_work fs 0);
  Alcotest.(check bool) "invariant kept" true (Flat_state.invariant fs);
  Alcotest.(check bool) "remove" true (Flat_state.pend_remove fs 0 0);
  Alcotest.(check (float 0.)) "head falls back" 1.25 (head 0);
  Alcotest.(check bool) "remove" true (Flat_state.pend_remove fs 0 1);
  Alcotest.(check (float 0.)) "emptied head" infinity (head 0);
  (* Emptying the queue pins work/weight to exactly 0., not a rounding
     residue. *)
  Alcotest.(check bool) "work pinned" true (Float.equal 0. (Flat_state.pend_work fs 0));
  Alcotest.(check bool) "weight pinned" true (Float.equal 0. (Flat_state.pend_weight fs 0));
  Alcotest.(check int) "empty heads" (-1) (Flat_state.head_spt fs 0);
  Alcotest.(check bool) "invariant" true (Flat_state.invariant fs)

(* --- Order-statistic index agrees with a sorted-list model ---------------- *)

(* The paper's [precede] on machine [i], read off the job handles. *)
let precede inst i a b =
  let ja = Instance.job inst a and jb = Instance.job inst b in
  let pa = Job.size ja i and pb = Job.size jb i in
  if pa <> pb then pa < pb
  else if ja.Job.release <> jb.Job.release then ja.Job.release < jb.Job.release
  else a < b

(* Sizes and releases from a coarse dyadic grid: plenty of ties on both
   keys, and every partial sum exact in any grouping, so the index's
   prefix work must equal the model's to the bit. *)
let grid_jobs rng ~nids ~m =
  List.init nids (fun _ ->
      ( float_of_int (Rng.int rng 6) /. 2.,
        Array.init m (fun _ -> float_of_int (1 + Rng.int rng 8) /. 4.) ))

(* Checks every machine's index against [model] (pending ids per
   machine): for every job the state knows as the query, the work of the
   pending jobs before it and the count after it, plus the minimum and
   maximum. *)
let index_agrees inst fs model =
  let ok = ref (Flat_state.invariant fs) in
  Array.iteri
    (fun i pend ->
      let sorted = List.sort (fun a b -> if precede inst i a b then -1 else 1) pend in
      for q = 0 to Flat_state.n fs - 1 do
        let before = List.filter (fun l -> l <> q && precede inst i l q) sorted in
        let after = List.filter (fun l -> l <> q && precede inst i q l) sorted in
        let work =
          List.fold_left (fun acc l -> acc +. Job.size (Instance.job inst l) i) 0. before
        in
        let s = Flat_state.pend_split fs i ~job:q in
        if not (Float.equal s.Flat_state.work_before work) then ok := false;
        if not (Float.equal s.Flat_state.count_after (float_of_int (List.length after))) then
          ok := false
      done;
      let first = match sorted with [] -> -1 | l :: _ -> l in
      let last = match List.rev sorted with [] -> -1 | l :: _ -> l in
      if Flat_state.index_max fs i <> last then ok := false;
      if Flat_state.head_spt fs i <> first then ok := false;
      (* The head column: the first job's size, [infinity] when empty. *)
      let head = if first < 0 then infinity else Job.size (Instance.job inst first) i in
      if not (Float.equal (Flat_state.pend_head fs i) head) then ok := false)
    model;
  !ok

let prop_index_model =
  QCheck.Test.make ~name:"index prefix count/work, min, max agree with a sorted-list model"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let rng = Rng.create salt in
      let nids = 2 + Rng.int rng 40 and m = 1 + Rng.int rng 3 in
      let inst = Test_util.instance ~machines:m (grid_jobs rng ~nids ~m) in
      (* [live] is woken before the first operation and kept incremental;
         [late] stays dormant until a random step, then is built from the
         pending sets in one go.  Both must answer as the model does. *)
      let live = state_of inst and late = state_of inst in
      ignore (Flat_state.index_max live 0);
      let wake_at = Rng.int rng 100 in
      let model = Array.make m [] and on = Array.make nids (-1) in
      let ok = ref (index_agrees inst live model) in
      let steps = 20 + Rng.int rng 120 in
      for step = 1 to steps do
        let id = Rng.int rng nids in
        if on.(id) >= 0 then begin
          let i = on.(id) in
          assert (Flat_state.pend_remove live i id);
          assert (Flat_state.pend_remove late i id);
          model.(i) <- List.filter (( <> ) id) model.(i);
          on.(id) <- -1
        end
        else begin
          let i = Rng.int rng m in
          Flat_state.pend_add live i id;
          Flat_state.pend_add late i id;
          model.(i) <- id :: model.(i);
          on.(id) <- i
        end;
        if not (index_agrees inst live model) then ok := false;
        if step >= wake_at && not (index_agrees inst late model) then ok := false
      done;
      !ok)

(* A dormant index holds nothing, and the invariant checks exactly that;
   after waking, it mirrors the pending sets. *)
let test_index_dormant_then_woken () =
  let inst =
    Test_util.instance ~machines:2
      [ (0., [| 0.5; 1. |]); (0., [| 0.5; 2. |]); (1., [| 0.25; 1. |]); (0., [| 2.; 0.5 |]) ]
  in
  let fs = state_of inst in
  List.iter (fun (i, id) -> Flat_state.pend_add fs i id) [ (0, 0); (0, 1); (0, 2); (1, 3) ];
  Alcotest.(check bool) "dormant invariant" true (Flat_state.invariant fs);
  (* SPT on machine 0: job 2 (0.25), then jobs 0 and 1 (0.5, tie on
     release, smaller id first). *)
  Alcotest.(check int) "max" 1 (Flat_state.index_max fs 0);
  Alcotest.(check int) "other machine" 3 (Flat_state.index_max fs 1);
  let s = Flat_state.pend_split fs 0 ~job:3 in
  Alcotest.(check (float 0.)) "work before job 3 (size 2)" 1.25 s.Flat_state.work_before;
  Alcotest.(check (float 0.)) "nothing after" 0. s.Flat_state.count_after;
  let s = Flat_state.pend_split fs 0 ~job:0 in
  Alcotest.(check (float 0.)) "pending query: before" 0.25 s.Flat_state.work_before;
  Alcotest.(check (float 0.)) "pending query: after" 1. s.Flat_state.count_after;
  Alcotest.(check bool) "woken invariant" true (Flat_state.invariant fs);
  List.iter (fun (i, id) -> assert (Flat_state.pend_remove fs i id)) [ (0, 2); (0, 0); (1, 3) ];
  Alcotest.(check int) "after removes" 1 (Flat_state.index_max fs 0);
  Alcotest.(check int) "emptied" (-1) (Flat_state.index_max fs 1);
  Alcotest.(check bool) "invariant" true (Flat_state.invariant fs)

(* Streaming growth: jobs fed one at a time double the columns at 16, 32
   and 64 while the live index holds pending jobs; each growth must
   carry the index over intact. *)
let test_index_survives_growth () =
  let m = 2 and nids = 100 in
  let rng = Rng.create 11 in
  let inst = Test_util.instance ~machines:m (grid_jobs rng ~nids ~m) in
  let fs = Flat_state.of_stream ~machines:inst.Instance.machines in
  let model = Array.make m [] in
  ignore (Flat_state.index_max fs 0);
  for id = 0 to nids - 1 do
    Flat_state.add_job fs (Instance.job inst id);
    let i = id mod m in
    Flat_state.pend_add fs i id;
    model.(i) <- id :: model.(i);
    (* Drop every third job again, so removals interleave with growth. *)
    if id mod 3 = 2 then begin
      let victim = id - 1 in
      let vi = victim mod m in
      assert (Flat_state.pend_remove fs vi victim);
      model.(vi) <- List.filter (( <> ) victim) model.(vi)
    end;
    if id = 15 || id = 16 || id = 31 || id = 32 || id = 63 || id = 64 then
      Alcotest.(check bool) (Printf.sprintf "agrees after job %d" id) true
        (index_agrees inst fs model)
  done;
  Alcotest.(check bool) "agrees at the end" true (index_agrees inst fs model)

(* Through the driver: a probe policy checks [pending_split] and
   [pending_longest] against scans of the materialized pending set at
   every arrival, across a session frozen and thawed mid-stream; the
   resumed schedule must equal the batch one. *)
let probe_split =
  let module FR = Rejection.Flow_reject in
  let base = FR.policy (FR.config ~eps:0.3 ()) in
  let on_arrival st view (j : Job.t) =
    Array.iteri
      (fun i _ ->
        if Job.eligible j i then begin
          let pend = Driver.pending view i in
          let pij = Job.size j i in
          let before (l : Job.t) =
            let pl = Job.size l i in
            if pl <> pij then pl < pij
            else if l.Job.release <> j.Job.release then l.Job.release < j.Job.release
            else l.Job.id < j.Job.id
          in
          let work =
            List.fold_left (fun acc l -> if before l then acc +. Job.size l i else acc) 0. pend
          in
          let after = List.length (List.filter (fun l -> not (before l)) pend) in
          let s = Driver.pending_split view i j in
          if not (Float.equal s.Driver.work_before work) then
            Alcotest.failf "job %d machine %d: work before %h, scan %h" j.Job.id i
              s.Driver.work_before work;
          if not (Float.equal s.Driver.count_after (float_of_int after)) then
            Alcotest.failf "job %d machine %d: count after %g, scan %d" j.Job.id i
              s.Driver.count_after after
        end)
      j.Job.sizes;
    base.Driver.on_arrival st view j
  in
  { base with Driver.name = "probe-split"; on_arrival }

let test_index_survives_freeze_thaw () =
  let inst =
    Test_util.random_instance ~restricted:true ~seed:41 ~n:300 ~m:3 ()
  in
  let batch = Serialize.schedule_to_string (Test_util.schedule_of probe_split inst) in
  let jobs = Instance.jobs_by_release inst in
  let half = Array.length jobs / 2 in
  let open_ () =
    Driver.Session.open_session ~name:inst.Instance.name ~machines:inst.Instance.machines
      probe_split
  in
  let s = open_ () in
  Array.iteri (fun k j -> if k < half then Driver.Session.feed s j) jobs;
  Driver.Session.drain_until s (Float.pred jobs.(half).Job.release);
  let s = Driver.Session.thaw probe_split (Driver.Session.freeze s) in
  Array.iteri (fun k j -> if k >= half then Driver.Session.feed s j) jobs;
  match Driver.Session.close s with
  | Some schedule, _, _ ->
      Alcotest.(check string) "resumed == batch" batch (Serialize.schedule_to_string schedule)
  | None, _, _ -> Alcotest.fail "no schedule"

(* --- Slot recycling ------------------------------------------------------ *)

(* A retiring state driven by hand: step [k] settles the jobs whose time
   is up, then feeds job [k] (external id [id_of k]), pops its arrival
   and keeps it in flight for 1..97 steps, a fixed scramble of [k], so
   jobs settle out of feed order and the free list is reused in mixed
   order.  Every step checks that the live ids resolve to slots holding
   them and that settled ids resolve to nothing; every id fed again,
   live or settled, is refused.  Returns the peak in-flight count and the
   final slot capacity. *)
let recycle_stream ~id_of ~n =
  let fs = Flat_state.of_stream ~machines:(Machine.fleet 2) in
  Flat_state.set_retire fs true;
  let due = Array.make (n + 100) [] in
  let live = ref 0 and peak = ref 0 in
  let resolves id = Flat_state.slot_of fs id >= 0 in
  for k = 0 to n - 1 do
    List.iter
      (fun id ->
        let s = Flat_state.slot_of fs id in
        if s < 0 || Flat_state.ext fs s <> id then Alcotest.failf "live id %d lost its slot" id;
        Flat_state.settle fs s;
        decr live;
        if resolves id then Alcotest.failf "settled id %d still resolves" id)
      due.(k);
    let id = id_of k in
    Flat_state.add_job fs (Job.create ~id ~release:(float_of_int k) ~sizes:[| 1.; 2. |] ());
    if not (Flat_state.next_event_before fs ~limit:infinity) then Alcotest.fail "no arrival";
    let j = Flat_state.arrive fs (Flat_state.ev_payload fs) in
    if j.Job.id <> id || Flat_state.slot_of fs id <> Flat_state.ev_payload fs then
      Alcotest.failf "job %d: arrival slot does not resolve" id;
    incr live;
    peak := max !peak !live;
    let life = 1 + (k * 7919 mod 97) in
    due.(k + life) <- id :: due.(k + life);
    if k mod 997 = 0 then begin
      if not (Flat_state.invariant fs) then Alcotest.failf "invariant broken at step %d" k;
      List.iter
        (fun old ->
          match Flat_state.add_job fs (Job.create ~id:old ~release:0. ~sizes:[| 1.; 1. |] ()) with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "id %d fed twice" old)
        [ id; id_of (k / 2); id_of 0 ]
    end
  done;
  (!peak, Flat_state.capacity fs)

let test_capacity_tracks_in_flight () =
  List.iter
    (fun (what, id_of) ->
      let n = 20_000 in
      let peak, cap = recycle_stream ~id_of ~n in
      if not (peak >= 32 && cap <= 2 * peak) then
        Alcotest.failf "%s: capacity %d for a peak of %d jobs in flight (n = %d)" what cap peak n)
    [ ("dense ids", Fun.id); ("ids up to 10^15", fun k -> k * 50_000_000_000) ]

(* The state holds nothing per (machine, slot).  One stream of [n] jobs
   is fed at m = 1, 64 and 512 machines, every job left pending on
   machine [k mod m] with all four orders and the index awake; the
   state's reachable words, less the jobs' own size vectors, must fit
   [a * capacity + b * m].  Any column of [m * capacity] cells would
   overshoot that at m = 512 several times over. *)
let state_words_excluding_sizes ~m ~n =
  let fs = Flat_state.of_stream ~machines:(Machine.fleet m) in
  ignore (Flat_state.head_density fs 0);
  ignore (Flat_state.head_size_id fs 0);
  ignore (Flat_state.head_fifo fs 0);
  ignore (Flat_state.index_max fs 0);
  let size_words = ref 0 in
  for k = 0 to n - 1 do
    let sizes = Array.init m (fun i -> float_of_int (1 + ((k + i) mod 7))) in
    size_words := !size_words + Obj.reachable_words (Obj.repr sizes);
    let j = Job.create ~id:k ~release:(float_of_int k) ~sizes () in
    Flat_state.add_job fs j;
    Flat_state.pend_add fs (k mod m) (Flat_state.slot_of fs k)
  done;
  if not (Flat_state.invariant fs) then Alcotest.failf "m = %d: invariant broken" m;
  (Obj.reachable_words (Obj.repr fs) - !size_words, Flat_state.capacity fs)

let test_state_words_linear () =
  let n = 2_000 in
  List.iter
    (fun m ->
      let words, cap = state_words_excluding_sizes ~m ~n in
      let bound = (48 * cap) + (128 * m) + 4096 in
      if words > bound then
        Alcotest.failf "m = %d: %d words for capacity %d, over %d" m words cap bound)
    [ 1; 64; 512 ]

(* The index's priorities hash the external id, not the slot: the same
   pending jobs, at the same slots reversed, give the same treap, so even
   sums of non-dyadic sizes (where any regrouping shows in the last
   place) come out bit for bit the same. *)
let test_index_shape_ignores_slots () =
  let n = 60 in
  let rng = Rng.create 5 in
  let sizes = Array.init n (fun _ -> 0.1 +. Rng.float rng) in
  let job id = Job.create ~id ~release:0. ~sizes:[| sizes.(id mod n) |] () in
  let fresh () =
    let fs = Flat_state.of_stream ~machines:(Machine.fleet 1) in
    Flat_state.set_retire fs true;
    fs
  in
  let a = fresh () and b = fresh () in
  (* In [b], placeholder jobs take slots 0..n-1 and settle in slot order;
     the free list hands them back last in, first out. *)
  for id = n to (2 * n) - 1 do
    Flat_state.add_job b (job id)
  done;
  for id = n to (2 * n) - 1 do
    Flat_state.settle b (Flat_state.slot_of b id)
  done;
  List.iter
    (fun fs ->
      for id = 0 to n - 1 do
        Flat_state.add_job fs (job id);
        Flat_state.pend_add fs 0 (Flat_state.slot_of fs id)
      done)
    [ a; b ];
  Alcotest.(check int) "b's slots are reversed" (n - 1) (Flat_state.slot_of b 0);
  let agree what =
    for q = 0 to n - 1 do
      let sa = Flat_state.pend_split a 0 ~job:(Flat_state.slot_of a q) in
      let wa = sa.Flat_state.work_before and ca = sa.Flat_state.count_after in
      let sb = Flat_state.pend_split b 0 ~job:(Flat_state.slot_of b q) in
      if not (Float.equal wa sb.Flat_state.work_before && Float.equal ca sb.Flat_state.count_after)
      then Alcotest.failf "%s: job %d splits as %h / %h" what q wa sb.Flat_state.work_before
    done;
    let ext fs s = if s < 0 then -1 else Flat_state.ext fs s in
    Alcotest.(check int) (what ^ ": max") (ext a (Flat_state.index_max a 0))
      (ext b (Flat_state.index_max b 0))
  in
  agree "all pending";
  for id = 0 to n - 1 do
    if id mod 3 = 0 then
      List.iter (fun fs -> assert (Flat_state.pend_remove fs 0 (Flat_state.slot_of fs id))) [ a; b ]
  done;
  agree "a third removed";
  Alcotest.(check bool) "invariants" true (Flat_state.invariant a && Flat_state.invariant b)

(* The id map and the settled-id runs against a model: random ids from a
   small range (dense runs, collisions in the map's probe sequences) or
   a huge one, settled in random order; an id is refused exactly when it
   was fed before. *)
let prop_ids_refused_once_fed =
  QCheck.Test.make ~name:"retiring state refuses exactly the ids fed before" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let rng = Rng.create salt in
      let range = if salt mod 2 = 0 then 64 else max_int / 2 in
      let fs = Flat_state.of_stream ~machines:(Machine.fleet 1) in
      Flat_state.set_retire fs true;
      let fed = Hashtbl.create 64 and live = ref [] in
      let ok = ref true in
      for k = 0 to 200 + Rng.int rng 300 do
        if !live <> [] && Rng.int rng 3 = 0 then begin
          let pick = List.nth !live (Rng.int rng (List.length !live)) in
          Flat_state.settle fs (Flat_state.slot_of fs pick);
          live := List.filter (( <> ) pick) !live;
          if Flat_state.slot_of fs pick >= 0 then ok := false
        end
        else begin
          let id = Rng.int rng range in
          let job = Job.create ~id ~release:(float_of_int k) ~sizes:[| 1. |] () in
          match Flat_state.add_job fs job with
          | () ->
              if Hashtbl.mem fed id then ok := false;
              Hashtbl.replace fed id ();
              live := id :: !live
          | exception Invalid_argument _ -> if not (Hashtbl.mem fed id) then ok := false
        end
      done;
      List.iter
        (fun id ->
          let s = Flat_state.slot_of fs id in
          if s < 0 || Flat_state.ext fs s <> id then ok := false)
        !live;
      !ok && Flat_state.invariant fs)

let suite =
  [
    qtest prop_stream_round_trip;
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
    qtest prop_index_model;
    Alcotest.test_case "index dormant, then woken" `Quick test_index_dormant_then_woken;
    Alcotest.test_case "index survives column growth" `Quick test_index_survives_growth;
    Alcotest.test_case "index survives freeze/thaw" `Quick test_index_survives_freeze_thaw;
    Alcotest.test_case "slot capacity tracks the jobs in flight" `Quick
      test_capacity_tracks_in_flight;
    Alcotest.test_case "state words are O(capacity + m)" `Quick test_state_words_linear;
    Alcotest.test_case "index shape ignores slot assignment" `Quick
      test_index_shape_ignores_slots;
    qtest prop_ids_refused_once_fed;
  ]
