(* Instrument cells.  Each instrument is a bare mutable record so the hot
   path pays one field write per event — no lookup, no allocation.  The
   registry (Registry) owns naming and iteration order; instruments
   themselves are anonymous. *)

module Counter = struct
  type t = { mutable value : float }

  let make () = { value = 0. }
  let value c = c.value
  let inc c = c.value <- c.value +. 1.

  let add c x =
    if x < 0. || Float.is_nan x then
      invalid_arg (Printf.sprintf "Obs.Counter.add: increment %g is not >= 0" x);
    c.value <- c.value +. x
end

module Gauge = struct
  type t = { mutable value : float }

  let make () = { value = 0. }
  let value g = g.value
  let set g x = g.value <- x
  let add g x = g.value <- g.value +. x
  let inc g = add g 1.
  let dec g = add g (-1.)
end
