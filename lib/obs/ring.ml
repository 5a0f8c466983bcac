(* A fixed-capacity flight-recorder ring: int and float columns over one
   circular slot index, stored row-major — one int array of
   [capacity * int_cols] and one float array of [capacity * float_cols],
   an entry's cells contiguous at [slot * cols].  Column arrays per se
   would be simpler, but every append then touches one cache line per
   column; the interleaved rows keep a whole entry inside one or two
   lines, which is most of an attached recorder's steady-state cost.

   Everything is preallocated in [create]; the write path ([append] +
   the column setters) touches only existing arrays and one mutable int,
   so the flat core can call it from its [@rejlint.hot] loop and
   RJL103's static proof goes through unchanged.

   Writers own the slot protocol: [append] claims the next slot
   (overwriting the oldest once full) and the caller then stores one
   value per column.  Readers index entries oldest-first; [first_seq]
   recovers the absolute sequence number of the oldest retained entry so
   exports can say how much history fell off the end.  A held ring
   grows instead of overwriting a held entry (the cold [grow]). *)

type t = {
  mutable cap : int;
  mutable cap_mask : int;
      (* [cap - 1] when [cap] is a power of two, else [-1]: lets [append]
         replace the integer division of [mod] — tens of cycles, paid per
         event — with a single [land] in the common case. *)
  int_cols : int;
  float_cols : int;
  mutable ints : int array;  (* Row-major: [slot * int_cols + col]. *)
  mutable floats : float array;  (* Row-major: [slot * float_cols + col]. *)
  mutable total : int;  (* Entries ever appended, monotone. *)
  mutable floor : int;  (* Oldest entry the last re-lay kept. *)
  mutable grow_at : int;
      (* [hold + cap], the [total] at which an append would overwrite the
         held entry; [max_int] without a hold, so the hot path pays one
         comparison. *)
}

let mask_of cap = if cap land (cap - 1) = 0 then cap - 1 else -1

let create ~int_cols ~float_cols ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  if int_cols < 0 || float_cols < 0 then invalid_arg "Ring.create: negative column count";
  {
    cap = capacity;
    cap_mask = mask_of capacity;
    int_cols;
    float_cols;
    ints = Array.make (max 1 (capacity * int_cols)) 0;
    floats = Array.make (max 1 (capacity * float_cols)) 0.;
    total = 0;
    floor = 0;
    grow_at = max_int;
  }

let capacity t = t.cap
let total t = t.total
let first_seq t = max t.floor (t.total - t.cap)
let length t = t.total - first_seq t
let int_cols t = t.int_cols
let float_cols t = t.float_cols
let held t = if t.grow_at = max_int then None else Some (t.grow_at - t.cap)

let hold t seq =
  if seq < first_seq t || seq > t.total then
    invalid_arg (Printf.sprintf "Ring.hold: entry %d is not retained" seq);
  t.grow_at <- seq + t.cap

let clear t =
  t.total <- 0;
  t.floor <- 0;
  if Option.is_some (held t) then t.grow_at <- t.cap

(* Re-lays the entries [first ..] into [cap] fresh slots, each at its
   sequence number's slot.  Cold, and it swaps the backing arrays:
   writers that hoisted {!ints}/{!floats} must re-read them. *)
let relay t ~first cap =
  let ints = Array.make (max 1 (cap * t.int_cols)) 0 in
  let floats = Array.make (max 1 (cap * t.float_cols)) 0. in
  for seq = first to t.total - 1 do
    let src = seq mod t.cap and dst = seq mod cap in
    Array.blit t.ints (src * t.int_cols) ints (dst * t.int_cols) t.int_cols;
    Array.blit t.floats (src * t.float_cols) floats (dst * t.float_cols) t.float_cols
  done;
  Option.iter (fun h -> t.grow_at <- h + cap) (held t);
  t.cap <- cap;
  t.cap_mask <- mask_of cap;
  t.ints <- ints;
  t.floats <- floats;
  t.floor <- first

let grow t = relay t ~first:(first_seq t) (2 * t.cap)

let compact t =
  let first = Option.value (held t) ~default:(first_seq t) in
  let rec pow2 c = if c >= t.total - first then c else pow2 (2 * c) in
  let c = { t with total = t.total } (* shallow: [relay] gives it its own arrays *) in
  relay c ~first (pow2 1);
  c

let[@rejlint.hot] append t =
  if t.total >= t.grow_at then (grow t [@rejlint.cold]);
  let slot =
    if t.cap_mask >= 0 then t.total land t.cap_mask else t.total mod t.cap
  in
  t.total <- t.total + 1;
  slot
[@@inline]

let[@rejlint.hot] set_int t ~col ~slot v = t.ints.((slot * t.int_cols) + col) <- v [@@inline]

let[@rejlint.hot] set_float t ~col ~slot v = t.floats.((slot * t.float_cols) + col) <- v
[@@inline]

(* Row escape hatch: hand the caller the backing arrays so its hot loop
   can store into a claimed row directly.  On the non-flambda compiler a
   float crossing a function boundary is boxed (one minor allocation);
   a store into a hoisted backing array is not, which is what keeps an
   attached recorder inside the driver's words-per-event ceilings.
   Cells of slot [s] live at [s * int_cols + col] and
   [s * float_cols + col]; slots must still be claimed through
   [append]. *)
let ints t = t.ints
let floats t = t.floats

(* Readers: [k] indexes retained entries oldest-first, [0 .. length-1]. *)

let slot_of t k =
  if k < 0 || k >= length t then
    invalid_arg (Printf.sprintf "Ring: entry index %d out of range (length %d)" k (length t));
  (first_seq t + k) mod t.cap

let get_int t ~col k = t.ints.((slot_of t k * t.int_cols) + col)
let get_float t ~col k = t.floats.((slot_of t k * t.float_cols) + col)
