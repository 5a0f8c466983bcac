(* Registry-wide guarantees: every shipped policy, run over a shared
   workload suite, yields a schedule the validator accepts (with the
   restart relaxation only where the entry declares it) — making the
   driver.mli promise checkable instead of aspirational. *)

open Sched_model
module PR = Sched_experiments.Policy_registry

let shared_workloads =
  let flow =
    List.concat_map
      (fun gen ->
        List.map (fun seed -> Sched_workload.Gen.instance gen ~seed) [ 1; 2 ])
      (Sched_workload.Suite.all_flow ~n:40 ~m:3)
  in
  let weighted =
    List.map
      (fun seed ->
        Sched_workload.Gen.instance (Sched_workload.Suite.weighted_energy ~n:30 ~m:3 ~alpha:3.) ~seed)
      [ 1; 2 ]
  in
  let dyadic =
    [
      Test_util.random_instance ~seed:11 ~n:30 ~m:2 ();
      Test_util.random_instance ~weighted:true ~restricted:true ~seed:12 ~n:30 ~m:4 ();
    ]
  in
  flow @ weighted @ dyadic

let test_names_unique_and_findable () =
  let names = List.map (fun (e : PR.entry) -> e.PR.name) PR.all in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun name ->
      match PR.find name with
      | Some e -> Alcotest.(check string) "find returns entry" name e.PR.name
      | None -> Alcotest.failf "registry find %s failed" name)
    names;
  List.iter
    (fun (alias, name) ->
      Alcotest.(check bool) (alias ^ " is not also an entry name") false (List.mem alias names);
      match PR.find alias with
      | Some e -> Alcotest.(check string) ("alias " ^ alias) name e.PR.name
      | None -> Alcotest.failf "alias %s resolves to nothing" alias)
    PR.aliases;
  Alcotest.(check bool) "unknown name" true (PR.find "no-such-policy" = None)

let test_validator_accepts_all_policies () =
  List.iter
    (fun (e : PR.entry) ->
      List.iter
        (fun inst ->
          let s = fst (e.PR.run inst) in
          match Schedule.violations ~mode:(Validator.mode ~allow_restarts:e.PR.allow_restarts ()) s with
          | [] -> ()
          | vs ->
              Alcotest.failf "%s invalid on %s: %a" e.PR.name inst.Instance.name Violation.pp_list
                vs)
        shared_workloads)
    PR.all

let test_strict_validation_without_restarts () =
  (* Entries not flagged allow_restarts must pass the strict validator. *)
  let inst = Test_util.random_instance ~weighted:true ~seed:21 ~n:30 ~m:3 () in
  List.iter
    (fun (e : PR.entry) ->
      if not e.PR.allow_restarts then
        match Schedule.violations (fst (e.PR.run inst)) with
        | [] -> ()
        | vs -> Alcotest.failf "%s fails strict validation: %a" e.PR.name Violation.pp_list vs)
    PR.all

(* [entry.run ~obs] is [Driver.run ~obs] on the entry's policy: the same
   telemetry snapshot, byte for byte (E1 relies on it to merge per-seed
   telemetry). *)
let test_run_obs_matches_driver () =
  let module FR = Rejection.Flow_reject in
  let module RS = Sched_baselines.Restart_spt in
  let inst = Test_util.random_instance ~weighted:true ~seed:2004 ~n:40 ~m:3 () in
  let export run =
    let obs = Sched_obs.Obs.create () in
    run obs;
    Sched_obs.Export.json (Sched_obs.Obs.registry obs)
  in
  let same name policy =
    let e = Option.get (PR.find name) in
    Alcotest.(check string) name
      (export (fun obs -> ignore (Sched_sim.Driver.run ~obs policy inst)))
      (export (fun obs -> ignore (e.PR.run ~obs inst)))
  in
  same "flow-reject" (FR.policy (FR.config ~eps:PR.eps ()));
  same "greedy-spt" Sched_baselines.Greedy_dispatch.spt;
  same "restart-spt" (RS.policy (RS.config ()))

let suite =
  [
    Alcotest.test_case "names unique, find works" `Quick test_names_unique_and_findable;
    Alcotest.test_case "validator accepts every policy on shared suite" `Quick
      test_validator_accepts_all_policies;
    Alcotest.test_case "strict validation where no restarts" `Quick
      test_strict_validation_without_restarts;
    Alcotest.test_case "entry run ~obs exports Driver.run's snapshot" `Quick
      test_run_obs_matches_driver;
  ]