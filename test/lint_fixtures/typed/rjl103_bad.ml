(* Fixture: a deliberately boxed variant of the flat event loop's
   shapes.  Every hot body below allocates structurally or calls
   [Float.min]/[Float.max] (out of line to caml_signbit); RJL103 flags
   each construct. *)

type st = { mutable clock : float; q : float array }

let[@rejlint.hot] step st i =
  let pair = (st.q.(i), i) in
  st.clock <- fst pair;
  Some i

let[@rejlint.hot] total st = st.q.(0) +. st.clock

let[@rejlint.hot] reader st =
  let f i = st.q.(i) in
  f

let[@rejlint.hot] advance st t =
  st.clock <- Float.max st.clock t;
  0

let[@rejlint.hot] lowest st = Array.fold_left Float.min infinity st.q
