(* Quickstart: build a small unrelated-machines instance by hand, run the
   paper's Theorem 1 algorithm as a policy-registry entry, audit the run,
   and inspect the schedule it produced.

   Run with: dune exec examples/quickstart.exe *)

open Sched_model
module PR = Sched_experiments.Policy_registry

let () =
  (* Two machines; five jobs with machine-dependent processing times.
     Job 3 is a "elephant" that would block the queue without rejection. *)
  let machines = Machine.fleet 2 in
  let jobs =
    [
      Job.create ~id:0 ~release:0.0 ~sizes:[| 2.0; 3.0 |] ();
      Job.create ~id:1 ~release:0.5 ~sizes:[| 4.0; 1.5 |] ();
      Job.create ~id:2 ~release:1.0 ~sizes:[| 1.0; 6.0 |] ();
      Job.create ~id:3 ~release:1.2 ~sizes:[| 40.0; 45.0 |] ();
      Job.create ~id:4 ~release:2.0 ~sizes:[| 2.5; 2.0 |] ();
    ]
  in
  let instance = Instance.create ~name:"quickstart" ~machines ~jobs () in
  Format.printf "instance: %a@." Instance.pp_stats instance;

  (* Run the Theorem 1 algorithm with eps = 0.25: at most 2*eps = 50%% of
     jobs may be rejected, and the total flow-time is guaranteed within
     2((1+eps)/eps)^2 = 50x of the offline optimum.  Every policy is an
     entry of the registry, found by name at an [eps]. *)
  let eps = 0.25 in
  let entry = Option.get (PR.find ~eps "flow-reject") in
  let schedule, live = entry.PR.run instance in
  (* The audit re-checks the run from scratch: a valid non-preemptive
     schedule, rejections within the 2*eps budget, and the driver's live
     metrics equal to a recomputation.  An empty list is a pass. *)
  (match PR.audit entry schedule live with
  | [] -> ()
  | violations -> failwith (Sched_check.Oracle.report violations));

  Format.printf "@.Per-job outcomes:@.";
  Array.iter
    (fun (j : Job.t) ->
      Format.printf "  %a -> %a@." Job.pp j Outcome.pp (Schedule.outcome schedule j.Job.id))
    (Instance.jobs_by_release instance);

  (* The counters realize eps_eff = 1/ceil(1/eps) <= eps, so the ratio the
     theorem proves for this run is the one at eps_eff. *)
  let eps_eff = 1. /. float_of_int (Rejection.Bounds.rule1_threshold ~eps) in
  let competitive_bound = Rejection.Bounds.flow_competitive ~eps:eps_eff in
  let flow = Metrics.flow schedule in
  let rejection = Metrics.rejection schedule in
  Format.printf "@.total flow-time (completed jobs): %.2f@." flow.Metrics.total;
  Format.printf "total flow-time (incl. rejected):  %.2f@." flow.Metrics.total_with_rejected;
  Format.printf "max flow: %.2f   mean flow: %.2f@." flow.Metrics.max_flow flow.Metrics.mean_flow;
  Format.printf "rejected: %d jobs (%.0f%% of the %.0f%% budget)@." rejection.Metrics.count
    (100. *. rejection.Metrics.fraction)
    (100. *. Rejection.Bounds.flow_rejection_budget ~eps);
  Format.printf "theoretical competitive bound: %.1f@." competitive_bound;

  (* The schedule at a glance. *)
  Format.printf "@.%s@." (Gantt.render ~width:64 schedule);

  (* Compare against the exact offline optimum (the instance is tiny). *)
  match Sched_baselines.Brute_force.optimal_flow instance with
  | Some opt ->
      Format.printf "offline OPT (all jobs, brute force): %.2f@." opt;
      Format.printf "empirical ratio: %.2f  (bound %.1f)@."
        (flow.Metrics.total_with_rejected /. opt)
        competitive_bound
  | None -> ()
