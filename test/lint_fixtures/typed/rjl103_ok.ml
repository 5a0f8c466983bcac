(* Fixture: the allocation-free flat-core idiom — stored-float reads,
   in-place float arithmetic, int returns, a clamp written as a
   comparison rather than [Float.max], a [@rejlint.cold] branch that
   is allowed to allocate, and a scan whose ref cells stay local (only
   [!], [:=], [incr] and [decr] touch them), which ocamlopt keeps as
   mutable locals. *)

type st = { mutable clock : float; mutable hits : int; q : float array }

let[@rejlint.hot] clock st = st.q.(0)
let[@rejlint.hot] set_clock st v = st.clock <- v
let[@rejlint.hot] bump st i = st.q.(i) <- st.q.(i) +. 1.0

let[@rejlint.hot] count st =
  st.hits <- st.hits + 1;
  st.hits

let[@rejlint.hot] sample st i = if st.clock > 0.0 then (Some i [@rejlint.cold]) else None

let[@rejlint.hot] advance st t = if t > st.clock then st.clock <- t

let[@rejlint.hot] argmin st =
  let best = ref (-1) and best_v = ref 0.0 and seen = ref 0 in
  for i = 0 to Array.length st.q - 1 do
    let v = st.q.(i) in
    incr seen;
    if !best < 0 || v < !best_v then begin
      best := i;
      best_v := v
    end
  done;
  decr seen;
  !best + !seen
