type id = int
type t = { id : id; speed : float; alpha : float }

let create ~id ?(speed = 1.0) ?(alpha = 3.0) () =
  if speed <= 0. || not (Float.is_finite speed) then
    invalid_arg "Machine.create: speed must be positive and finite";
  if alpha < 1.0 || not (Float.is_finite alpha) then
    invalid_arg "Machine.create: alpha must be >= 1";
  { id; speed; alpha }

let with_speed t speed = create ~id:t.id ~speed ~alpha:t.alpha ()

let fleet ?(speed = 1.0) ?(alpha = 3.0) m =
  if m <= 0 then invalid_arg "Machine.fleet: need at least one machine";
  Array.init m (fun id -> create ~id ~speed ~alpha ())
