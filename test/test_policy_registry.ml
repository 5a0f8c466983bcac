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
  Alcotest.(check bool) "unknown name" true (PR.find "no-such-policy" = None)

let test_validator_accepts_all_policies () =
  List.iter
    (fun (e : PR.entry) ->
      List.iter
        (fun inst ->
          let s = fst (e.PR.run inst) in
          match Schedule.validate ~allow_restarts:e.PR.allow_restarts s with
          | Ok () -> ()
          | Error msgs ->
              Alcotest.failf "%s invalid on %s:\n%s" e.PR.name inst.Instance.name
                (String.concat "\n" msgs))
        shared_workloads)
    PR.all

let test_strict_validation_without_restarts () =
  (* Entries not flagged allow_restarts must pass the strict validator. *)
  let inst = Test_util.random_instance ~weighted:true ~seed:21 ~n:30 ~m:3 () in
  List.iter
    (fun (e : PR.entry) ->
      if not e.PR.allow_restarts then
        match Schedule.validate (fst (e.PR.run inst)) with
        | Ok () -> ()
        | Error msgs ->
            Alcotest.failf "%s fails strict validation: %s" e.PR.name
              (String.concat "; " msgs))
    PR.all

let suite =
  [
    Alcotest.test_case "names unique, find works" `Quick test_names_unique_and_findable;
    Alcotest.test_case "validator accepts every policy on shared suite" `Quick
      test_validator_accepts_all_policies;
    Alcotest.test_case "strict validation where no restarts" `Quick
      test_strict_validation_without_restarts;
  ]