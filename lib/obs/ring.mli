(** Fixed-capacity flight-recorder ring buffer.

    Int and float columns share one circular slot index: an entry is one
    slot across every column.  Storage is row-major — an entry's cells
    are contiguous — so an append touches one or two cache lines, not
    one per column.  All storage is preallocated by {!create}; the write
    path — {!append} plus the column setters — performs no allocation,
    which RJL103 proves statically (the functions carry [\@rejlint.hot]).

    Write protocol: call {!append} to claim the next slot (overwriting
    the oldest entry once the ring is full), then store one value per
    column with {!set_int}/{!set_float} at that slot.  The ring does not
    interpret columns; {!Recorder} layers event semantics on top.  A
    {!hold} makes the ring grow instead of overwriting held entries. *)

type t

val create : int_cols:int -> float_cols:int -> capacity:int -> t
(** Preallocates [int_cols] + [float_cols] columns of [capacity] slots.
    Raises [Invalid_argument] if [capacity <= 0] or a column count is
    negative.  A power-of-two capacity lets the write path replace its
    per-event [mod] (an integer division) with a bitwise [land]. *)

val capacity : t -> int

val total : t -> int
(** Entries ever appended (monotone; not capped). *)

val length : t -> int
(** Entries currently retained: [total t - first_seq t]. *)

val first_seq : t -> int
(** Absolute sequence number of the oldest retained entry, i.e.
    [total t - length t] entries have been overwritten and lost. *)

val hold : t -> int -> unit
(** [hold t seq]: entries [seq] and later survive (replacing any earlier
    hold).  Raises [Invalid_argument] unless [first_seq t <= seq <= total t]. *)

val held : t -> int option

val compact : t -> t
(** A copy retaining only the held entries (all retained ones without a
    hold) in the smallest power-of-two capacity that fits them. *)

val append : t -> int
(** Claims the next slot and returns its index.  Allocation-free except
    when it grows past a hold (cold, amortized O(1)). *)

val ints : t -> int array
(** The row-major int backing array: slot [s]'s cells live at
    [s * int_cols + col], with [int_cols] as given to {!create}.  Writers
    hoist it and store directly — on the non-flambda compiler a float
    argument crossing a function boundary is boxed, a direct array
    store is not — and claim slots through {!append},
    and re-read it after one: a held ring grows into a new array. *)

val floats : t -> float array
(** Row-major float counterpart of {!ints}, stride [float_cols]. *)

val get_int : t -> col:int -> int -> int
(** [get_int t ~col k] reads retained entry [k] (oldest-first,
    [0 <= k < length t]) from an int column.  Raises
    [Invalid_argument] out of range. *)

val get_float : t -> col:int -> int -> float
