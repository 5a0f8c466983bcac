(* Seed-corpus replay: every checked-in case in test/fuzz_corpus must
   parse, match the built-in seed list byte-for-byte (no silent drift),
   and run oracle-clean under its named policy. *)

open Sched_model
module Corpus = Sched_fuzz.Corpus
module Fuzz = Sched_fuzz.Fuzz
module P = Sched_experiments.Policy_registry

let corpus_dir = "fuzz_corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort String.compare

let test_seed_list () =
  let seeds = Corpus.seeds () in
  Alcotest.(check int) "thirteen seed cases" 13 (List.length seeds);
  let names = List.map (fun c -> c.Corpus.name) seeds in
  Alcotest.(check int) "names distinct" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun c ->
      Alcotest.(check string) "filename shape" (c.Corpus.name ^ ".case") (Corpus.filename c))
    seeds

let test_round_trip () =
  List.iter
    (fun c ->
      match Corpus.parse (Corpus.render c) with
      | Error e -> Alcotest.failf "%s does not round-trip: %s" c.Corpus.name e
      | Ok c' ->
          Alcotest.(check string) "name" c.Corpus.name c'.Corpus.name;
          Alcotest.(check string) "policy" c.Corpus.policy c'.Corpus.policy;
          Alcotest.(check string) "instance"
            (Serialize.instance_to_string c.Corpus.instance)
            (Serialize.instance_to_string c'.Corpus.instance))
    (Corpus.seeds ())

let test_files_match_seeds () =
  let seeds = Corpus.seeds () in
  Alcotest.(check (list string)) "exactly the seed files on disk"
    (List.sort String.compare (List.map Corpus.filename seeds))
    (corpus_files ());
  List.iter
    (fun c ->
      let path = Filename.concat corpus_dir (Corpus.filename c) in
      Alcotest.(check string)
        (Printf.sprintf "%s matches --write-seed-corpus output" (Corpus.filename c))
        (Corpus.render c) (read_file path))
    seeds

let test_replay_clean () =
  List.iter
    (fun file ->
      let path = Filename.concat corpus_dir file in
      match Corpus.parse (read_file path) with
      | Error e -> Alcotest.failf "%s: parse error: %s" file e
      | Ok c -> (
          match P.find c.Corpus.policy with
          | None -> Alcotest.failf "%s names unknown policy %s" file c.Corpus.policy
          | Some entry -> (
              match Fuzz.property_fails entry "oracle" c.Corpus.instance with
              | None -> ()
              | Some d -> Alcotest.failf "%s: %s is no longer oracle-clean: %s" file c.Corpus.policy d)))
    (corpus_files ())

let suite =
  [
    Alcotest.test_case "seed list shape" `Quick test_seed_list;
    Alcotest.test_case "render/parse round-trip" `Quick test_round_trip;
    Alcotest.test_case "checked-in files match seeds" `Quick test_files_match_seeds;
    Alcotest.test_case "replay oracle-clean" `Quick test_replay_clean;
  ]
