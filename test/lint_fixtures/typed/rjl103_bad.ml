(* Fixture: a deliberately boxed variant of the flat event loop's
   shapes.  Every hot body below allocates structurally or calls
   [Float.min]/[Float.max] (out of line to caml_signbit); RJL103 flags
   each construct.  From [escaping] on, each ref cell outlives the call
   or is handed to a function, so it is a real heap cell, not a mutable
   local. *)

type st = { mutable clock : float; q : float array; mutable last : int ref }

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

let[@rejlint.hot] escaping st =
  let count = ref 0 in
  st.last <- count;
  incr count;
  !count

(* Each cell below is captured by a construct that compiles to a
   function, so ref elimination keeps it a heap block: flagged even
   though the capturing construct is cold. *)
let[@rejlint.hot] lazy_capture st =
  let x = ref 0 in
  ignore (lazy (incr x) [@rejlint.cold]);
  !x + Array.length st.q

let[@rejlint.hot] closure_capture st =
  let x = ref 0 in
  ignore ((fun () -> incr x) [@rejlint.cold]);
  !x + Array.length st.q

let[@rejlint.hot] partial_capture st =
  let x = ref 0 in
  let set = (( := ) x [@rejlint.cold]) in
  set 1;
  !x + Array.length st.q

(* A unit's own [(!)] is an ordinary call that receives the cell. *)
let kept : int ref list ref = ref []

let ( ! ) r =
  kept := r :: Stdlib.( ! ) kept;
  Stdlib.( ! ) r

let[@rejlint.hot] shadowed st =
  let x = ref 0 in
  !x + Array.length st.q
