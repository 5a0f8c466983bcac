open Sched_model

let schedules_total = "sched_check_schedules_total"
let clean_total = "sched_check_clean_total"
let violations_total = "sched_check_violations_total"

let record registry violations =
  Sched_obs.Metric.Counter.inc
    (Sched_obs.Registry.counter registry ~help:"Schedules audited by the oracle" schedules_total);
  match violations with
  | [] ->
      Sched_obs.Metric.Counter.inc
        (Sched_obs.Registry.counter registry ~help:"Schedules the oracle found clean" clean_total)
  | vs ->
      List.iter
        (fun (v : Violation.t) ->
          Sched_obs.Metric.Counter.inc
            (Sched_obs.Registry.counter registry ~help:"Oracle violations by checker"
               ~labels:[ ("check", Violation.check_name v.Violation.check) ]
               violations_total))
        vs
