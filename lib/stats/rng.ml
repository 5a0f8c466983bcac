(* The SplitMix state lives unboxed in 8 bytes: a mutable [int64] record
   field would be a pointer to a fresh box on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

(* Mixing functions from the SplitMix64 reference implementation. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (mix64 (int64 t))

let copy = Bytes.copy

let[@inline] float t =
  (* 53 high-quality bits -> [0,1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float_range t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* 62 random bits fit positively in OCaml's 63-bit native int; plain
     modulo bias is negligible for our n << 2^62 use cases. *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  bits mod n

let exponential t rate =
  assert (rate > 0.);
  let u = 1.0 -. float t in
  -.log u /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
