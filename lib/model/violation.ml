type check =
  | Segment_bounds
  | Release_respect
  | Machine_overlap
  | Non_preemption
  | Outcome_consistency
  | Exactly_once
  | Deadline
  | Rejection_budget
  | Metric_drift

let all_checks =
  [
    Segment_bounds;
    Release_respect;
    Machine_overlap;
    Non_preemption;
    Outcome_consistency;
    Exactly_once;
    Deadline;
    Rejection_budget;
    Metric_drift;
  ]

let check_name = function
  | Segment_bounds -> "segment-bounds"
  | Release_respect -> "release-respect"
  | Machine_overlap -> "machine-overlap"
  | Non_preemption -> "non-preemption"
  | Outcome_consistency -> "outcome-consistency"
  | Exactly_once -> "exactly-once"
  | Deadline -> "deadline"
  | Rejection_budget -> "rejection-budget"
  | Metric_drift -> "metric-drift"


let check_rank c =
  let rec go k = function
    | [] -> k
    | c' :: rest -> if c' = c then k else go (k + 1) rest
  in
  go 0 all_checks

type t = {
  check : check;
  job : Job.id option;
  machine : Machine.id option;
  at : Time.t option;
  detail : string;
}

let make ?job ?machine ?at check detail = { check; job; machine; at; detail }

let cmp_opt cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let compare a b =
  match Int.compare (check_rank a.check) (check_rank b.check) with
  | 0 -> (
      match cmp_opt Int.compare a.job b.job with
      | 0 -> (
          match cmp_opt Int.compare a.machine b.machine with
          | 0 -> (
              match cmp_opt Float.compare a.at b.at with
              | 0 -> String.compare a.detail b.detail
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let pp ppf v =
  Format.fprintf ppf "[%s]" (check_name v.check);
  (match v.job with Some j -> Format.fprintf ppf " job %d" j | None -> ());
  (match v.machine with Some m -> Format.fprintf ppf " machine %d" m | None -> ());
  (match v.at with Some t -> Format.fprintf ppf " at %g" t | None -> ());
  Format.fprintf ppf ": %s" v.detail

let pp_list ppf vs =
  Format.fprintf ppf "%d violation%s" (List.length vs) (if List.length vs = 1 then "" else "s");
  List.iter (fun v -> Format.fprintf ppf "@\n  %a" pp v) vs
