(* The flight recorder: scheduling-event semantics over a {!Ring}.

   One entry per driver event — dispatch, start, complete, reject,
   restart — with the decision provenance the post-mortem needs: the
   candidate machine set and queue score at dispatch time, and the
   theorem-budget counters (rejected count and weight so far) at the
   moment of each rejection.  Column meanings are fixed here.

   The write protocol is split to keep an attached recorder cheap on the
   non-flambda compiler, where any float crossing a function boundary is
   boxed (one minor allocation each): the [reserve_*] writers take only
   ints — kind, ids and the int payload — stamp the int cells of the
   claimed row and return the row's base index into the float backing
   array, and the caller then stores the float payload directly at
   [base + o_time] etc.  Both halves are allocation-free, so attaching a
   recorder to the flat core keeps its static zero-allocation proof and
   its words-per-event ceilings.

   Column layout (one row per event):
     int   kind     0=dispatch 1=start 2=complete 3=reject 4=restart
     int   job      job id
     int   machine  machine id
     int   flag     dispatch: candidate count; reject: was_running 0/1
     int   aux      dispatch: eligibility bitmask (bit [i] for machine
                    [i] <= 61, machines beyond that saturate into bit
                    62); reject: jobs rejected so far (this one included)
     float time     simulation clock at the event
     float value    dispatch: pending work on the chosen machine before
                    the insert; start: effective rate; complete: flow
                    time; reject: remaining volume; restart: wasted work
     float score    dispatch: value + remaining volume of the chosen
                    machine's running job; start: job size there
     float budget   reject: total rejected weight so far *)

let int_cols = 5
let float_cols = 4
let col_kind = 0
let col_job = 1
let col_machine = 2
let col_flag = 3
let col_aux = 4
let col_time = 0
let col_value = 1
let col_score = 2
let col_budget = 3

(* Float-cell offsets from the row base a [reserve_*] call returns. *)
let o_time = col_time
let o_value = col_value
let o_score = col_score
let o_budget = col_budget

let kind_dispatch = 0
let kind_start = 1
let kind_complete = 2
let kind_reject = 3
let kind_restart = 4

type t = { ring : Ring.t; mutable ints : int array; mutable floats : float array }

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  let ring = Ring.create ~int_cols ~float_cols ~capacity in
  { ring; ints = Ring.ints ring; floats = Ring.floats ring }

let compact t =
  let ring = Ring.compact t.ring in
  { ring; ints = Ring.ints ring; floats = Ring.floats ring }

let capacity t = Ring.capacity t.ring
let total t = Ring.total t.ring
let length t = Ring.length t.ring
let dropped t = Ring.total t.ring - Ring.length t.ring
let clear t = Ring.clear t.ring

(* The int half of every write.  The float cells are deliberately not
   zeroed here: every writer stores [time] and [value], and the decode
   side masks [score]/[budget] by kind, so a wrapped slot cannot leak a
   previous entry's payload through cells the new kind leaves unset.
   An append that grew a held ring swapped its backing arrays; the
   fields follow, and the caller's float stores read them after this. *)
let[@rejlint.hot] reserve t kind ~job ~machine ~flag ~aux =
  let slot = Ring.append t.ring in
  if Ring.ints t.ring != t.ints then begin
    t.ints <- Ring.ints t.ring;
    t.floats <- Ring.floats t.ring
  end;
  let ib = slot * int_cols in
  t.ints.(ib + col_kind) <- kind;
  t.ints.(ib + col_job) <- job;
  t.ints.(ib + col_machine) <- machine;
  t.ints.(ib + col_flag) <- flag;
  t.ints.(ib + col_aux) <- aux;
  slot * float_cols
[@@inline]

let[@rejlint.hot] reserve_dispatch t ~job ~machine ~cands ~mask =
  reserve t kind_dispatch ~job ~machine ~flag:cands ~aux:mask
[@@inline]

let[@rejlint.hot] reserve_start t ~job ~machine =
  reserve t kind_start ~job ~machine ~flag:0 ~aux:0
[@@inline]

let[@rejlint.hot] reserve_complete t ~job ~machine =
  reserve t kind_complete ~job ~machine ~flag:0 ~aux:0
[@@inline]

let[@rejlint.hot] reserve_reject t ~job ~machine ~was_running ~rejected =
  reserve t kind_reject ~job ~machine ~flag:(if was_running then 1 else 0) ~aux:rejected
[@@inline]

let[@rejlint.hot] reserve_restart t ~job ~machine =
  reserve t kind_restart ~job ~machine ~flag:0 ~aux:0
[@@inline]

(* --- cold decode side ------------------------------------------------- *)

type kind = Dispatch | Start | Complete | Reject | Restart

let kind_to_string = function
  | Dispatch -> "dispatch"
  | Start -> "start"
  | Complete -> "complete"
  | Reject -> "reject"
  | Restart -> "restart"

let kind_of_int = function
  | 0 -> Dispatch
  | 1 -> Start
  | 2 -> Complete
  | 3 -> Reject
  | 4 -> Restart
  | k -> invalid_arg (Printf.sprintf "Recorder: unknown event kind %d" k)

type entry = {
  seq : int;
  time : float;
  kind : kind;
  job : int;
  machine : int;
  flag : int;
  aux : int;
  value : float;
  score : float;
  budget : float;
}

(* One cell of retained row [k] (oldest-first): what an exporter that
   formats rows straight from the ring reads, without decoding an
   {!entry}. *)
let kind t k = kind_of_int (Ring.get_int t.ring ~col:col_kind k)
let job t k = Ring.get_int t.ring ~col:col_job k
let machine t k = Ring.get_int t.ring ~col:col_machine k
let flag t k = Ring.get_int t.ring ~col:col_flag k
let time t k = Ring.get_float t.ring ~col:col_time k
let value t k = Ring.get_float t.ring ~col:col_value k

let entry t k =
  let r = t.ring in
  let kind = kind_of_int (Ring.get_int r ~col:col_kind k) in
  (* [score]/[budget] are only written by some kinds (and [reserve] does
     not zero float cells), so mask by kind here rather than surface a
     wrapped slot's stale payload. *)
  {
    seq = Ring.first_seq r + k;
    time = Ring.get_float r ~col:col_time k;
    kind;
    job = Ring.get_int r ~col:col_job k;
    machine = Ring.get_int r ~col:col_machine k;
    flag = Ring.get_int r ~col:col_flag k;
    aux = Ring.get_int r ~col:col_aux k;
    value = Ring.get_float r ~col:col_value k;
    score =
      (match kind with
      | Dispatch | Start -> Ring.get_float r ~col:col_score k
      | Complete | Reject | Restart -> 0.);
    budget = (match kind with Reject -> Ring.get_float r ~col:col_budget k | _ -> 0.);
  }

let entries ?last t =
  let len = length t in
  let keep =
    match last with
    | None -> len
    | Some n when n < 0 -> 0
    | Some n -> if n < len then n else len
  in
  List.init keep (fun idx -> entry t (len - keep + idx))
