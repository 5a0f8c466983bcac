(** The simulator's two heaps, both keyed for deterministic ordering
    and allocation-free once their arrays have grown.

    {!Events} is the event queue, ordered by [(key, tag)]
    lexicographically with primitive float/int comparisons ([-0.] equals
    [0.], as everywhere else in the simulator); the integer tag breaks
    ties at equal times.  Keys, tags and payloads live in parallel
    unboxed arrays and [pop] deposits the minimum into cursor fields
    read back via {!Events.key}/{!Events.tag}/{!Events.payload}, so the
    driver's steady state never touches the minor heap.  Keys must be
    finite and tags unique while queued.

    {!Iheap} is the indexed min-heap behind the per-machine pending
    sets. *)

module Events : sig
  (** Int-encoded event keys.  A tag is the insertion sequence plus, for
      arrivals, a high kind bit — so at equal times completions (bit
      clear) sort before arrivals (bit set), and within a kind the
      sequence decides.  A
      completion payload packs [(machine, epoch)] into one int.  Encoders
      raise [Invalid_argument] out of range; within range, encode/decode
      is a bijection (property-tested). *)
  module Key : sig
    (* rejlint: allow test-only-export — tests probe the key encoders' range edges with it *)
    val max_seq : int
    (** Largest encodable sequence number, [2^40 - 1]. *)

    val max_machine : int
    (** Largest encodable machine id, [2^20 - 1]. *)

    (* rejlint: allow test-only-export — tests probe the key encoders' range edges with it *)
    val max_epoch : int
    (** Largest encodable epoch, [2^42 - 1]. *)

    val finish_tag : seq:int -> int
    val arrival_tag : seq:int -> int
    val is_arrival : tag:int -> bool
    (* rejlint: allow test-only-export — tests probe the key encoders' range edges with it *)
    val seq_of : tag:int -> int

    val finish_payload : machine:int -> epoch:int -> int
    val machine_of : payload:int -> int
    val epoch_of : payload:int -> int

    (* rejlint: allow test-only-export — tests model-check the queue's pop order against it *)
    val compare : float -> int -> float -> int -> int
    (** [compare k1 t1 k2 t2] is the total order the queue realizes over
        [(key, tag)] pairs with finite keys and unique tags: keys first
        (primitive float comparison), tags second ([Int.compare]).
        Exposed for the total-order property tests. *)
  end

  type t

  val create : unit -> t
  val is_empty : t -> bool
  val push : t -> key:float -> tag:int -> payload:int -> unit

  val pop : t -> bool
  (** Removes the minimum, depositing it in the cursor; [false] when
      empty.  Allocation-free. *)

  val pop_before : t -> limit:float -> bool
  (** {!pop}, but refuses to pop an event whose key exceeds [limit]:
      [false] when the queue is empty {e or} its minimum key is
      [> limit] (the cursor is untouched in both refusal cases).
      [pop_before t ~limit:infinity] behaves exactly like [pop t] for
      the finite keys the queue admits.  Allocation-free per call given
      the caller boxes [limit] once per drain, not per event. *)

  val key : t -> float
  (** Key of the most recently popped event.  Meaningless before the
      first successful {!pop}. *)

  val tag : t -> int
  val payload : t -> int

  val peek_key : t -> float
  (** Key of the current minimum, without removing it.  Meaningless when
      the queue is empty (check {!is_empty} first); allocation-free. *)

  val ensure_capacity : t -> int -> unit
  (** Grows the backing arrays to hold at least [n] queued events, so a
      caller that knows the arrival count up front pays one allocation
      instead of a doubling cascade.  Never shrinks. *)
end

(** Indexed min-heap over bare ids: a binary heap that additionally
    tracks the heap slot of every id, giving O(log n) removal of
    {e arbitrary} elements — the operation mid-run rejection needs — on
    top of the usual O(log n) insert/extract-min.  The elements {e are}
    the ids, held in a plain [int array], so add/remove/min are
    allocation-free once the array has grown.

    The heap stores no order.  Each call that compares takes it as
    [~less ctx]: [less ctx a b] is a strict total order over the ids
    present (break ties on the id itself), read from the caller's state
    [ctx].  Pass a top-level function, not a closure: the heap then
    holds nothing but ints, so it marshals as plain data, and the arrays
    the order reads may be reallocated between calls.  Every call on one
    heap must pass the same order, or the heap invariant silently
    breaks.

    Nor does the heap own its position table.  Each call that reads or
    moves ids takes it as [~pos], an id-indexed [int array] holding the
    id's heap position or [-1], covering every id ever added.  Several
    heaps may share one table as long as an id is in at most one of them
    at a time; a heap recognizes its own ids by the position recorded
    for an id holding that id, so {!mem} and {!remove} on a heap that
    does not hold the id answer [false] and leave the table alone.  Each
    heap must be passed the same table on every call.

    The slot layout is load-bearing: [Driver.pending_iter] exposes
    heap-array order to policies, some of which fold floats over it, so
    any change to the add/remove algorithm can change schedules (the
    corpus x policy goldens pin it). *)
module Iheap : sig
  type t

  val create : unit -> t
  val size : t -> int
  val is_empty : t -> bool

  val mem : t -> pos:int array -> id:int -> bool
  (** Whether this heap holds the id. *)

  val add : t -> less:('c -> int -> int -> bool) -> 'c -> pos:int array -> id:int -> unit
  (** Raises [Invalid_argument] if [id] is negative, outside [pos], or
      already registered in [pos] (by this heap or another sharing
      it). *)

  val remove : t -> less:('c -> int -> int -> bool) -> 'c -> pos:int array -> id:int -> bool
  (** Removes the element with the given id in O(log n); [false] when
      this heap does not hold it. *)

  val min_id : t -> int
  (** Smallest id under the order, or [-1] when empty. *)

  val iter : t -> f:(int -> unit) -> unit
  (** Iterates in heap-array order: deterministic for a given operation
      history, but {e not} sorted. *)

  val invariant : t array -> less:('c -> int -> int -> bool) -> 'c -> pos:int array -> bool
  (** Structural check, for tests, over all the heaps sharing [pos]:
      each has the heap property and every id it holds is recorded at
      its position, and [pos] registers exactly as many ids as the heaps
      hold between them. *)
end
