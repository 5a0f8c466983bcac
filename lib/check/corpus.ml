open Sched_model

type case = { name : string; policy : string; instance : Instance.t }

(* One case per behavioural corner: tie-breaking, restricted eligibility,
   heavy tails, mid-run rejection, weighted rejection, speed scaling,
   restarts and the Lemma 1 adversarial stream.  Policies are referenced
   by registry name so replay picks up the current implementation. *)
let seed_coords =
  [
    ("ties-greedy-spt", "greedy-spt", { Scenario.family = "ties"; seed = 1; n = 12; m = 3 });
    ("ties-flow-reject", "flow-reject", { Scenario.family = "ties"; seed = 2; n = 16; m = 2 });
    ( "restricted-flow-reject",
      "flow-reject",
      { Scenario.family = "restricted"; seed = 5; n = 40; m = 4 } );
    ( "pareto-immediate-load",
      "immediate-load",
      { Scenario.family = "pareto"; seed = 7; n = 60; m = 3 } );
    ( "bimodal-flow-reject-weighted",
      "flow-reject-weighted",
      { Scenario.family = "bimodal"; seed = 11; n = 48; m = 3 } );
    ( "weighted-flow-energy-reject",
      "flow-energy-reject",
      { Scenario.family = "weighted"; seed = 13; n = 36; m = 2 } );
    ( "related-restart-spt",
      "restart-spt",
      { Scenario.family = "related"; seed = 17; n = 40; m = 3 } );
    ( "adversary-immediate-largest",
      "immediate-largest",
      { Scenario.family = "adversary"; seed = 1; n = 0; m = 0 } );
    ( "diurnal-greedy-fifo",
      "greedy-fifo",
      { Scenario.family = "diurnal"; seed = 23; n = 64; m = 4 } );
    (* Distilled from rebatch (stream-vs-batch) fuzzing: clustered
       arrivals put several releases inside one feed chunk while earlier
       jobs are still finishing, so the drain horizon repeatedly lands
       exactly on a completion key — the corner where a streaming
       ordering bug would first diverge from the batch run. *)
    ( "clustered-stream-flow-reject",
      "flow-reject",
      { Scenario.family = "clustered"; seed = 29; n = 24; m = 3 } );
    (* Wide fleets for flow-reject's dispatch scan: with every size equal
       and every release at zero, every lambda_ij ties and the leftmost
       minimum decides; restricted eligibility puts infinite sizes on
       about half of 64 machines. *)
    ("ties-wide-flow-reject", "flow-reject", { Scenario.family = "ties"; seed = 31; n = 256; m = 64 });
    ( "restricted-wide-flow-reject",
      "flow-reject",
      { Scenario.family = "restricted"; seed = 37; n = 400; m = 64 } );
    (* The greedy baselines' tie rule: identical machines and batches of
       2m simultaneous arrivals, so equal estimated completions are
       common and Greedy_dispatch's leftmost strict minimum decides the
       machine. *)
    ( "bimodal-greedy-fifo",
      "greedy-fifo",
      { Scenario.family = "bimodal"; seed = 41; n = 48; m = 4 } );
  ]

let seeds () =
  List.map
    (fun (name, policy, coord) -> { name; policy; instance = Scenario.instance coord })
    seed_coords

let render c =
  String.concat ""
    [
      "rejsched-fuzz-case v1\n";
      "name " ^ c.name ^ "\n";
      "policy " ^ c.policy ^ "\n";
      Serialize.instance_to_string c.instance;
    ]

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec header name policy = function
    | [] -> Error "missing instance payload"
    | line :: rest -> (
        let line' = String.trim line in
        match String.split_on_char ' ' line' with
        | [ "rejsched-fuzz-case"; "v1" ] -> header name policy rest
        | "name" :: more -> header (Some (String.concat " " more)) policy rest
        | "policy" :: more -> header name (Some (String.concat " " more)) rest
        | [ "rejsched-instance"; "v1" ] -> (
            match (name, policy) with
            | Some name, Some policy -> (
                match Serialize.instance_of_string (String.concat "\n" (line :: rest)) with
                | Ok instance -> Ok { name; policy; instance }
                | Error e -> Error e)
            | None, _ -> Error "missing name header"
            | _, None -> Error "missing policy header")
        | [ "" ] -> header name policy rest
        | tok :: _ -> Error (Printf.sprintf "unknown header %S" tok)
        | [] -> header name policy rest)
  in
  header None None lines

let filename c = c.name ^ ".case"
