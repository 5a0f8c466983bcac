(** The flight recorder: per-decision scheduling events with provenance,
    in a fixed-capacity {!Ring}.

    A recorder attached to the driver ([Driver.run ~recorder]) captures
    one entry per dispatch/start/complete/reject/restart event, carrying
    the context the aggregate counters lose: the candidate machine set
    and queue score behind each dispatch, and the theorem-budget
    counters (rejections and rejected weight so far) at the moment of
    each rejection.  Once full, the oldest entries are overwritten — the
    last [capacity] decisions before a failure are always available.

    The write protocol has two halves so an attached recorder stays
    allocation-free on the non-flambda compiler, where a float crossing
    a function boundary is boxed: a [reserve_*] call takes only ints,
    stamps the int cells of the claimed row and returns the row's base
    index into the float backing array; the caller then stores the float
    payload directly at [base + o_time] etc.  Both halves are
    [\@rejlint.hot] and RJL103-proven, so the flat core records from
    its hot loop without breaking its static zero-alloc proof or its
    words-per-event ceilings.  Decoding ({!entries}) is the cold path
    for exporters and forensics. *)

type t = private { ring : Ring.t; mutable ints : int array; mutable floats : float array }
(** The backing arrays are exposed (row-major, shared with [ring]) so
    writers can store float payloads without a boxing call boundary;
    rows must be claimed through [reserve_*], never fabricated.  A held
    ring ({!Ring.hold}) grows and replaces them: never hoist them across
    a [reserve_*]. *)

val default_capacity : int
(** 65536 entries. *)

val create : ?capacity:int -> unit -> t
(** Preallocates the ring; default capacity {!default_capacity}.  A
    power-of-two capacity keeps the write path on its division-free
    fast path. *)

val compact : t -> t
(** {!Ring.compact} on the recorder's ring. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded (monotone). *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events overwritten and lost: [total t - length t]. *)

(** {1 Hot write path}

    Each [reserve_*] claims the next row, stamps its int cells and
    returns the row's base index into {!floats}; the caller follows up
    with direct stores of the float payload, e.g.
    [(let b = reserve_start rc ~job ~machine in
      rc.floats.(b + o_time) <- clock;
      rc.floats.(b + o_value) <- rate;
      rc.floats.(b + o_score) <- size)].
    Float cells are not zeroed on reserve: [o_time] and [o_value] must
    be stored for every kind, while [o_score]/[o_budget] are masked by
    kind at decode, so a wrapped slot cannot leak a previous entry's
    payload. *)

val o_time : int
val o_value : int
val o_score : int
val o_budget : int

val reserve_dispatch : t -> job:int -> machine:int -> cands:int -> mask:int -> int
(** [cands] is the number of eligible machines, [mask] their bitmask
    (bit [i] for machine [i <= 61]; higher machines saturate into bit
    62).  Float payload: [o_time] the clock, [o_value] the chosen
    machine's pending work before the insert, [o_score] that work plus
    the remaining volume of its running job. *)

val reserve_start : t -> job:int -> machine:int -> int
(** Float payload: [o_time], [o_value] the effective rate, [o_score]
    the job's size on the machine. *)

val reserve_complete : t -> job:int -> machine:int -> int
(** Float payload: [o_time], [o_value] the flow time [finish - release]. *)

val reserve_reject : t -> job:int -> machine:int -> was_running:bool -> rejected:int -> int
(** [rejected] is the rejected-jobs counter {e after} this rejection is
    accounted — the value the theorem bound constrains.  Float payload:
    [o_time], [o_value] the remaining volume, [o_budget] the rejected
    weight so far (same post-accounting convention). *)

val reserve_restart : t -> job:int -> machine:int -> int
(** Float payload: [o_time], [o_value] the wasted (re-done) work. *)

(** {1 Cold decode path} *)

type kind = Dispatch | Start | Complete | Reject | Restart

val kind_to_string : kind -> string

type entry = {
  seq : int;  (** Absolute event number (0-based since the run began). *)
  time : float;
  kind : kind;
  job : int;
  machine : int;
  flag : int;  (** Dispatch: candidate count; reject: was_running 0/1. *)
  aux : int;  (** Dispatch: eligibility bitmask; reject: rejected-so-far. *)
  value : float;
      (** Dispatch: pending work before insert; start: rate; complete:
          flow; reject: remaining volume; restart: wasted work. *)
  score : float;  (** Dispatch: work + remaining volume; start: size. *)
  budget : float;  (** Reject: rejected weight so far. *)
}

val entries : ?last:int -> t -> entry list
(** Retained entries oldest-first; [?last] keeps only the newest [n]. *)

(** {2 One cell of a retained row}

    [k] counts retained entries oldest-first, [0 <= k < length t], as
    in {!entries}; each reader raises [Invalid_argument] out of range.
    For exporters that format rows straight from the ring without
    building {!entry} records. *)

val kind : t -> int -> kind
val job : t -> int -> int
val machine : t -> int -> int

val flag : t -> int -> int
(** Dispatch: candidate count; reject: was_running 0/1. *)

val time : t -> int -> float

val value : t -> int -> float
(** The kind's main float payload, as {!entry}'s [value]. *)
