(** Oracle results as {!Sched_obs} telemetry.

    Fuzz runs record their oracle verdicts here, so `--telemetry`
    snapshots show how many schedules were audited and which checkers
    fired. *)

val record : Sched_obs.Registry.t -> Sched_model.Violation.t list -> unit
(** Bumps [sched_check_schedules_total]; on a clean list also bumps
    [sched_check_clean_total]; otherwise bumps
    [sched_check_violations_total{check="<name>"}] once per violation.
    Registration is get-or-create, so repeated calls accumulate into the
    same cells. *)
