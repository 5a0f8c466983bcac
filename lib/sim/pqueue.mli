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
    val max_seq : int
    (** Largest encodable sequence number, [2^40 - 1]. *)

    val max_machine : int
    (** Largest encodable machine id, [2^20 - 1]. *)

    val max_epoch : int
    (** Largest encodable epoch, [2^42 - 1]. *)

    val finish_tag : seq:int -> int
    val arrival_tag : seq:int -> int
    val is_arrival : tag:int -> bool
    val seq_of : tag:int -> int

    val finish_payload : machine:int -> epoch:int -> int
    val machine_of : payload:int -> int
    val epoch_of : payload:int -> int

    val compare : float -> int -> float -> int -> int
    (** [compare k1 t1 k2 t2] is the total order the queue realizes over
        [(key, tag)] pairs with finite keys and unique tags: keys first
        (primitive float comparison), tags second ([Int.compare]).
        Exposed for the total-order property tests. *)
  end

  type t

  val create : unit -> t
  val size : t -> int
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

  val clear : t -> unit
end

(** Indexed min-heap over bare ids: a binary heap that additionally
    tracks the heap slot of every id, giving O(log n) removal of
    {e arbitrary} elements — the operation mid-run rejection needs — on
    top of the usual O(log n) insert/extract-min.  The elements {e are}
    the ids, held in plain [int array]s, so add/remove/min are
    allocation-free once the arrays have grown.  The strict order is a
    closure over whatever flat state the caller keys on (it must be total
    over the ids present — break ties on the id itself).

    The slot layout is load-bearing: [Driver.pending_iter] exposes
    heap-array order to policies, some of which fold floats over it, so
    any change to the add/remove algorithm can change schedules (the
    corpus x policy goldens pin it). *)
module Iheap : sig
  type t

  val create : less:(int -> int -> bool) -> unit -> t

  val set_less : t -> less:(int -> int -> bool) -> unit
  (** Replaces the strict order's closure without touching the heap
      shape — the re-bless hook for streaming column growth, where the
      arrays a comparator captured are reallocated wholesale.  [less]
      must realize the {e same} total order over the ids currently
      present, or the heap invariant silently breaks. *)

  val size : t -> int
  val is_empty : t -> bool
  val mem : t -> id:int -> bool

  val add : t -> id:int -> unit
  (** Raises [Invalid_argument] if [id] is negative or already present. *)

  val remove : t -> id:int -> bool
  (** Removes the element with the given id in O(log n); [false] when
      absent. *)

  val min_id : t -> int
  (** Smallest id under [less], or [-1] when empty. *)

  val iter : t -> f:(int -> unit) -> unit
  (** Iterates in heap-array order: deterministic for a given operation
      history, but {e not} sorted. *)

  val clear : t -> unit

  val invariant : t -> bool
  (** Structural check (heap property + position-table consistency), for
      tests. *)
end
