(* Metamorphic properties for every registered policy: job-permutation
   invariance, machine-relabeling equivalence, power-of-two time-scale
   covariance and release-shift invariance — evaluated both inline and
   fanned out through the domain pool at widths 1 and 4 (the fanned-out
   verdict matrix must be identical at any width). *)

open Sched_model
module Fuzz = Sched_fuzz.Fuzz
module P = Sched_experiments.Policy_registry
module Pool = Sched_stats.Pool
module Transform = Sched_workload.Transform

(* Dyadic instances: every quantity is a multiple of 1/4 and machine speeds
   are powers of two, so the scale/shift covariances hold exactly. *)
let instances =
  lazy
    [
      Test_util.random_instance ~seed:21 ~n:24 ~m:3 ();
      Test_util.random_instance ~weighted:true ~seed:22 ~n:20 ~m:2 ();
      Test_util.random_instance ~restricted:true ~seed:23 ~n:24 ~m:3 ();
    ]

let props = [ "oracle"; "permute"; "relabel"; "scale" ]

let check_policy (entry : P.entry) () =
  List.iter
    (fun inst ->
      List.iter
        (fun prop ->
          match Fuzz.property_fails entry prop inst with
          | None -> ()
          | Some d ->
              Alcotest.failf "%s violates %s on %s: %s" entry.P.name prop
                inst.Instance.name d)
        props)
    (Lazy.force instances)

(* Shifting every release by an integer leaves flow-times, rejections and
   energy untouched (completions shift along with the releases). *)
let check_shift (entry : P.entry) () =
  List.iter
    (fun inst ->
      let base = fst (entry.P.run inst) in
      let shifted = fst (entry.P.run (Transform.shift_releases 4. inst)) in
      let f s = (Metrics.flow s).Metrics.total_with_rejected in
      Alcotest.(check (float 1e-6))
        (entry.P.name ^ " flow shift-invariant on " ^ inst.Instance.name)
        (f base) (f shifted);
      Alcotest.(check int)
        (entry.P.name ^ " rejections shift-invariant")
        (Metrics.rejection base).Metrics.count
        (Metrics.rejection shifted).Metrics.count;
      Alcotest.(check (float 1e-6))
        (entry.P.name ^ " energy shift-invariant")
        (Metrics.energy base) (Metrics.energy shifted))
    (Lazy.force instances)

(* The full (policy, property, instance) verdict matrix, fanned out through
   the work-sharing pool.  parallel_map assembles results in input order, so
   the matrix must be identical at any width — and all-clean. *)
let matrix domains =
  let items =
    List.concat_map
      (fun (e : P.entry) ->
        List.concat_map
          (fun prop ->
            List.mapi (fun i inst -> (e, prop, i, inst)) (Lazy.force instances))
          props)
      P.all
  in
  Pool.with_pool ~domains (fun pool ->
      Pool.parallel_map_list pool
        (fun (e, prop, i, inst) ->
          let verdict =
            match Fuzz.property_fails e prop inst with None -> "ok" | Some d -> d
          in
          (Printf.sprintf "%s|%s|%d" e.P.name prop i, verdict))
        items)

let test_matrix_widths () =
  let w1 = matrix 1 and w4 = matrix 4 in
  Alcotest.(check (list (pair string string)))
    "verdict matrix identical at widths 1 and 4" w1 w4;
  List.iter
    (fun (label, verdict) ->
      if verdict <> "ok" then Alcotest.failf "%s failed: %s" label verdict)
    w1

let suite =
  List.concat_map
    (fun (e : P.entry) ->
      [
        Alcotest.test_case (e.P.name ^ " metamorphic") `Quick (check_policy e);
        Alcotest.test_case (e.P.name ^ " release shift") `Quick (check_shift e);
      ])
    P.all
  @ [ Alcotest.test_case "pool-width verdict matrix" `Quick test_matrix_widths ]
