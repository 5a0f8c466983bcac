(* Fixture: the allocation-free flat-core idiom — stored-float reads,
   in-place float arithmetic, int returns, a clamp written as a
   comparison rather than [Float.max], and a [@rejlint.cold] branch that
   is allowed to allocate. *)

type st = { mutable clock : float; mutable hits : int; q : float array }

let[@rejlint.hot] clock st = st.q.(0)
let[@rejlint.hot] set_clock st v = st.clock <- v
let[@rejlint.hot] bump st i = st.q.(i) <- st.q.(i) +. 1.0

let[@rejlint.hot] count st =
  st.hits <- st.hits + 1;
  st.hits

let[@rejlint.hot] sample st i = if st.clock > 0.0 then (Some i [@rejlint.cold]) else None

let[@rejlint.hot] advance st t = if t > st.clock then st.clock <- t
