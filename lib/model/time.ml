type t = float

let tolerance = 1e-9
let equal a b = Float.abs (a -. b) <= tolerance
let lt a b = b -. a > tolerance
let gt a b = a -. b > tolerance
let nonneg t = t >= -.tolerance
let pp ppf t = Format.fprintf ppf "%.6g" t
