(* Allocation-regression gate for the flat core: the driver's own
   bookkeeping on the hot path must stay allocation-free.  A mid-size
   run's minor-words-per-event figure is read back from the driver's
   telemetry counters and held under a fixed ceiling, so any future edit
   that re-introduces boxing on the hot path (a mutable float field, an
   eagerly built trace event, a list where an array belongs) fails
   `dune runtest` instead of silently eroding the performance win.

   What remains under the ceiling is the irreducible per-event cost of
   the *policy interface* — decision records, [Some job] view answers,
   span closures — which the issue pins as unchanged.  [Gc.minor_words]
   counts words allocated, not collector activity, so the figure is
   deterministic for a fixed instance and policy and the gates can sit
   close to the measured values. *)

open Sched_model
open Sched_sim
module Rng = Sched_stats.Rng
module Obs = Sched_obs.Obs
module Registry = Sched_obs.Registry
module Metric = Sched_obs.Metric

(* Spread releases (not the dyadic differential generator): short queues,
   so the figure reflects the per-event code path rather than policy
   scans over deep pending sets. *)
let make_instance ~seed ~n ~m =
  let rng = Rng.create seed in
  let jobs =
    List.init n (fun id ->
        let release = float_of_int (Rng.int rng (4 * n)) /. 4. in
        let sizes = Array.init m (fun _ -> float_of_int (1 + Rng.int rng 32) /. 4.) in
        let weight = float_of_int (1 + Rng.int rng 16) /. 4. in
        Job.create ~id ~release ~weight ~sizes ())
  in
  Instance.create ~machines:(Machine.fleet m) ~jobs ()

let run_and_measure ?recorder ~n ~m policy =
  let instance = make_instance ~seed:7 ~n ~m in
  let registry = Registry.create () in
  let obs = Obs.create ~registry () in
  ignore (Driver.run ?recorder ~obs policy instance);
  let words =
    Metric.Counter.value (Registry.counter registry "sched_flat_loop_minor_words_total")
  in
  let events =
    Metric.Counter.value (Registry.counter registry "sched_flat_loop_events_total")
  in
  (words, events)

let check_gate ?recorder ~what ~gate policy =
  (* Warm-up run pays one-time lazy initialization. *)
  ignore (run_and_measure ~n:500 ~m:4 policy);
  let words, events = run_and_measure ?recorder ~n:4000 ~m:4 policy in
  (* At least one arrival per job; rejected-before-start jobs push no
     finish event. *)
  Alcotest.(check bool) "events counted" true (events >= 4000.);
  let per_event = words /. events in
  if per_event > gate then
    Alcotest.failf
      "%s: flat loop allocates %.1f minor words/event (gate %.1f): the hot path is boxing again"
      what per_event gate

(* Measured ~58 words/event (all policy-interface cost). *)
let test_steady_state_allocs () =
  check_gate ~what:"greedy-spt" ~gate:80. Sched_baselines.Greedy_dispatch.spt

(* The rejection path through the loop is separate code; flow-reject also
   pays for its per-arrival candidate scan.  Measured ~70 words/event. *)
let test_steady_state_allocs_reject () =
  let module FR = Rejection.Flow_reject in
  check_gate ~what:"flow-reject" ~gate:100. (FR.policy (FR.config ~eps:0.3 ()))

(* The same ceilings must hold with a flight recorder attached: its write
   path is allocation-free by construction (int-only [reserve_*] calls
   plus direct stores into the hoisted float backing array).  Under the
   dev profile's [-opaque] the [Flat_state] float accessors feeding the
   recorder's payload are not inlined, so each boxes its return — a few
   words/event of build-mode (not code-path) cost; the release-profile
   bench pins the true zero.  greedy-spt absorbs it inside its existing
   gate; flow-reject's provenance payload reads more accessors (measured
   ~102 dev vs ~70 bare), so its recorder gate sits a notch higher. *)
let test_steady_state_allocs_recorded () =
  let recorder = Sched_obs.Recorder.create ~capacity:4096 () in
  check_gate ~recorder ~what:"greedy-spt+recorder" ~gate:80.
    Sched_baselines.Greedy_dispatch.spt;
  Alcotest.(check bool) "events recorded" true (Sched_obs.Recorder.total recorder > 0)

let test_steady_state_allocs_reject_recorded () =
  let module FR = Rejection.Flow_reject in
  let recorder = Sched_obs.Recorder.create ~capacity:4096 () in
  check_gate ~recorder ~what:"flow-reject+recorder" ~gate:110.
    (FR.policy (FR.config ~eps:0.3 ()))

let suite =
  [
    Alcotest.test_case "steady-state minor words/event under gate" `Quick test_steady_state_allocs;
    Alcotest.test_case "rejection path under gate" `Quick test_steady_state_allocs_reject;
    Alcotest.test_case "recorder attached stays under gate" `Quick
      test_steady_state_allocs_recorded;
    Alcotest.test_case "recorder attached, rejection path" `Quick
      test_steady_state_allocs_reject_recorded;
  ]
