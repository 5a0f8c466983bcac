open Sched_model

type flow_result = {
  schedule : Schedule.t;
  flow : Metrics.flow;
  rejection : Metrics.rejection;
  competitive_bound : float;
  rejection_budget : float;
}

let run_flow ?(eps = 0.25) instance =
  let cfg = Flow_reject.config ~eps () in
  let schedule, state = Flow_reject.run cfg instance in
  Schedule.assert_valid ~check_deadlines:false schedule;
  (* The counters realize eps_eff = 1/ceil(1/eps) <= eps, so the ratio the
     theorem actually proves is the (larger) one at eps_eff; the rejection
     budget at the requested eps holds a fortiori. *)
  let eps_eff = Flow_reject.effective_eps state in
  {
    schedule;
    flow = Metrics.flow schedule;
    rejection = Metrics.rejection schedule;
    competitive_bound = Bounds.flow_competitive ~eps:eps_eff;
    rejection_budget = Bounds.flow_rejection_budget ~eps;
  }
