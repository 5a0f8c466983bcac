(** Event log of a simulation run.

    The trace is the raw material for offline analyses that must not reach
    into policy internals: the dual-fitting certificate (Lemma 4 of the
    paper) reconstructs [|U_i(t)|] and the definitive-finish bookkeeping
    entirely from these events. *)

open Sched_model

type event =
  | Dispatch of { job : Job.id; machine : Machine.id }
      (** The policy routed the newly released job to a machine. *)
  | Start of { job : Job.id; machine : Machine.id; speed : float }
  | Complete of { job : Job.id; machine : Machine.id }
  | Reject of {
      job : Job.id;
      machine : Machine.id;
      was_running : bool;
      remaining : float;  (** Remaining volume at the rejection instant
                              (equals the full size when never started). *)
    }
  | Restart of {
      job : Job.id;
      machine : Machine.id;
      wasted : float;  (** Volume processed and discarded by the kill. *)
    }

type entry = { time : Time.t; event : event }

type t
(** A flight-recorder ring that never drops a row it has not
    {!release}d: it grows instead.  Attached to the driver it is the
    session's row sink, and entries are decoded from its rows on read:
    trace/1 is a field projection of trace/2. *)

val create : unit -> t

(* rejlint: allow test-only-export — tests build traces of every event kind by hand with it *)
val record : t -> Time.t -> event -> unit
(** Appends one event (the driver writes its rows directly). *)

val recorder : t -> Sched_obs.Recorder.t
(** The ring, for trace/2 export. *)

val events : t -> entry list
(** The unreleased entries, in chronological (recording) order. *)

val length : t -> int
(** Entries ever recorded, released ones included. *)

val since : t -> int -> entry list
(** [since t k] — the entries recorded after the first [k], oldest
    first: the incremental-emission cursor of the serve loop.
    O(new entries), not O(length).  Raises [Invalid_argument] when [k]
    is below the release mark. *)

val release : t -> int -> unit
(** [release t k]: the first [k] entries are consumed and may be
    overwritten, so the ring stays as small as the unconsumed entries.
    Raises [Invalid_argument] when entry [k] is gone or beyond {!length}. *)

val unreleased : t -> int
(** Entries recorded and not yet {!release}d: they are the newest
    [unreleased t] retained rows of {!recorder}. *)

val unread : t -> t
(** A copy holding only the unreleased entries — what a checkpoint
    carries. *)

(* rejlint: allow test-only-export — tests check with it that live runs drain every queue *)
val queue_profile : t -> machines:int -> (Machine.id * (Time.t * int) list) list
(** Per machine, the step function of [|U_i(t)|] (dispatched, not yet
    completed or rejected): a list of [(time, new value)] changes, starting
    implicitly from 0. *)

(* rejlint: allow test-only-export — tests check with it that live runs drain every pending set *)
val pending_profile : t -> machines:int -> (Machine.id * (Time.t * int) list) list
(** Per machine, the step function of the {e pending} population
    (dispatched, not yet started): +1 on [Dispatch], -1 on [Start], -1 on a
    pending-state [Reject], and +1 again on [Restart] (the killed job
    re-enters the queue).  A mid-run [Reject] and a [Complete] leave it
    unchanged — the job already left the pending set at its [Start]. *)

(* rejlint: allow test-only-export — only its own test calls it (ROADMAP item 5) *)
val pp_entry : Format.formatter -> entry -> unit
