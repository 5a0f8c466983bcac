(* Event queue.  Keys, tags and payloads live in parallel unboxed arrays;
   [pop] writes the minimum into cursor fields instead of returning an
   option, so the driver's steady state never touches the minor heap.
   The order is [(key, tag)] lexicographic with primitive float/int
   comparisons (so [-0. = 0.], as everywhere else in the simulator).
   Keys must be finite and tags unique while queued. *)

module Events = struct
  module Key = struct
    (* Tags order same-time events: completions (seq alone) sort before
       arrivals (seq + the arrival bit), and within a kind the insertion
       sequence decides.  Payloads carry the event operands: the job id of
       an arrival, or a (machine, epoch) pair packed for a completion. *)
    let arrival_bit = 1 lsl 40
    let max_seq = arrival_bit - 1
    let machine_bits = 20
    let max_machine = (1 lsl machine_bits) - 1
    let max_epoch = (1 lsl (62 - machine_bits)) - 1

    let check_seq seq =
      if seq < 0 || seq > max_seq then
        invalid_arg (Printf.sprintf "Pqueue.Events.Key: sequence %d out of range" seq)

    let finish_tag ~seq =
      check_seq seq;
      seq

    let arrival_tag ~seq =
      check_seq seq;
      arrival_bit + seq

    let is_arrival ~tag = tag land arrival_bit <> 0
    let seq_of ~tag = tag land (arrival_bit - 1)

    let finish_payload ~machine ~epoch =
      if machine < 0 || machine > max_machine then
        invalid_arg (Printf.sprintf "Pqueue.Events.Key: machine %d out of range" machine);
      if epoch < 0 || epoch > max_epoch then
        invalid_arg (Printf.sprintf "Pqueue.Events.Key: epoch %d out of range" epoch);
      (epoch lsl machine_bits) lor machine

    let machine_of ~payload = payload land max_machine
    let epoch_of ~payload = payload lsr machine_bits

    (* The total order realized by the queue, exposed for the property
       tests: keys first ([-0.] and [0.] compare equal, mirroring the
       float [<] the heaps use), unique tags second.  Finite keys only. *)
    let compare k1 t1 k2 t2 =
      if k1 < k2 then -1 else if k2 < k1 then 1 else Int.compare t1 t2
  end

  type t = {
    mutable ekey : float array;
    mutable etag : int array;
    mutable epay : int array;
    mutable elen : int;
    cur_key : float array;
        (* One-element scratch cell: a [mutable float] field of this mixed
           record would be boxed and re-allocated on every pop; a float
           array stores it unboxed. *)
    mutable cur_tag : int;
    mutable cur_pay : int;
  }

  let create () =
    {
      ekey = [||];
      etag = [||];
      epay = [||];
      elen = 0;
      cur_key = Array.make 1 0.;
      cur_tag = 0;
      cur_pay = 0;
    }

  let is_empty t = t.elen = 0

  let eless t i j =
    t.ekey.(i) < t.ekey.(j) || (t.ekey.(i) = t.ekey.(j) && t.etag.(i) < t.etag.(j))

  let swap t i j =
    let k = t.ekey.(i) and g = t.etag.(i) and p = t.epay.(i) in
    t.ekey.(i) <- t.ekey.(j);
    t.etag.(i) <- t.etag.(j);
    t.epay.(i) <- t.epay.(j);
    t.ekey.(j) <- k;
    t.etag.(j) <- g;
    t.epay.(j) <- p

  let grow t =
    let cap = Array.length t.ekey in
    if t.elen = cap then begin
      let ncap = max 16 (2 * cap) in
      let nkey = Array.make ncap 0. and ntag = Array.make ncap 0 and npay = Array.make ncap 0 in
      Array.blit t.ekey 0 nkey 0 t.elen;
      Array.blit t.etag 0 ntag 0 t.elen;
      Array.blit t.epay 0 npay 0 t.elen;
      t.ekey <- nkey;
      t.etag <- ntag;
      t.epay <- npay
    end

  let push t ~key ~tag ~payload =
    grow t;
    let i = ref t.elen in
    t.ekey.(!i) <- key;
    t.etag.(!i) <- tag;
    t.epay.(!i) <- payload;
    t.elen <- t.elen + 1;
    while !i > 0 && eless t !i ((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      swap t !i parent;
      i := parent
    done

  let pop t =
    if t.elen = 0 then false
    else begin
      t.cur_key.(0) <- t.ekey.(0);
      t.cur_tag <- t.etag.(0);
      t.cur_pay <- t.epay.(0);
      t.elen <- t.elen - 1;
      if t.elen > 0 then begin
        t.ekey.(0) <- t.ekey.(t.elen);
        t.etag.(0) <- t.etag.(t.elen);
        t.epay.(0) <- t.epay.(t.elen);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < t.elen && eless t l !smallest then smallest := l;
          if r < t.elen && eless t r !smallest then smallest := r;
          if !smallest = !i then continue := false
          else begin
            swap t !i !smallest;
            i := !smallest
          end
        done
      end;
      true
    end

  let key t = t.cur_key.(0)
  let tag t = t.cur_tag
  let payload t = t.cur_pay

  (* Bounded pop for the session driver's [drain_until]: refuse to pop
     past the horizon.  The comparison reads the root key straight out of
     the unboxed key array, so the per-event cost over [pop] is one float
     compare — the horizon itself is boxed once per drain call by the
     caller, never per event. *)
  let pop_before t ~limit = if t.elen = 0 || t.ekey.(0) > limit then false else pop t

  (* Non-destructive root read: meaningless on an empty queue (the caller
     checks [is_empty]) and allocation-free — the float is already stored
     unboxed in the key array. *)
  let peek_key t = t.ekey.(0)

  let ensure_capacity t n =
    let cap = Array.length t.ekey in
    if n > cap then begin
      let ncap = max 16 (max n (2 * cap)) in
      let nkey = Array.make ncap 0. and ntag = Array.make ncap 0 and npay = Array.make ncap 0 in
      Array.blit t.ekey 0 nkey 0 t.elen;
      Array.blit t.etag 0 ntag 0 t.elen;
      Array.blit t.epay 0 npay 0 t.elen;
      t.ekey <- nkey;
      t.etag <- ntag;
      t.epay <- npay
    end

  let clear t =
    t.ekey <- [||];
    t.etag <- [||];
    t.epay <- [||];
    t.elen <- 0
end

(* ------------------------------------------------------------------ *)

module Iheap = struct
  (* The elements ARE the ids, so nothing is boxed: the heap is a plain
     [int array] and every operation is allocation-free.

     The heap stores neither its order nor its position table.  Every
     call that compares takes the order as [~less ctx]: a top-level
     function applied to the caller's state, so the heap never captures
     the arrays the order reads — they can be reallocated between calls,
     and the heap stays plain data.  The position table ([~pos], id ->
     heap position, [-1] when absent) is the caller's column too, and
     several heaps may share one as long as an id sits in at most one of
     them at a time: a heap then knows its own ids by checking that the
     position recorded for an id holds that id in its array.

     Add appends and sifts up; remove moves the last element into the
     hole and sifts up then down.  The resulting slot layout is
     load-bearing: [Driver.pending_iter] exposes heap-array order to
     policies, and some of them fold floats over it, so a change to this
     algorithm can change schedules (the corpus x policy goldens pin
     it). *)

  type t = { mutable hdata : int array; mutable hlen : int }

  let create () = { hdata = [||]; hlen = 0 }
  let size t = t.hlen
  let is_empty t = t.hlen = 0

  let mem t ~pos ~id =
    id >= 0
    && id < Array.length pos
    &&
    let p = pos.(id) in
    p >= 0 && p < t.hlen && t.hdata.(p) = id

  let set t pos slot id =
    t.hdata.(slot) <- id;
    pos.(id) <- slot

  let rec sift_up t less ctx pos slot =
    if slot > 0 then begin
      let parent = (slot - 1) / 2 in
      if less ctx t.hdata.(slot) t.hdata.(parent) then begin
        let a = t.hdata.(slot) and b = t.hdata.(parent) in
        set t pos slot b;
        set t pos parent a;
        sift_up t less ctx pos parent
      end
    end

  let rec sift_down t less ctx pos slot =
    let l = (2 * slot) + 1 and r = (2 * slot) + 2 in
    let smallest = ref slot in
    if l < t.hlen && less ctx t.hdata.(l) t.hdata.(!smallest) then smallest := l;
    if r < t.hlen && less ctx t.hdata.(r) t.hdata.(!smallest) then smallest := r;
    if !smallest <> slot then begin
      let a = t.hdata.(slot) and b = t.hdata.(!smallest) in
      set t pos slot b;
      set t pos !smallest a;
      sift_down t less ctx pos !smallest
    end

  let add t ~less ctx ~pos ~id =
    if id < 0 then invalid_arg "Pqueue.Iheap.add: negative id";
    if id >= Array.length pos then
      invalid_arg (Printf.sprintf "Pqueue.Iheap.add: id %d outside the position table" id);
    if pos.(id) >= 0 then
      invalid_arg (Printf.sprintf "Pqueue.Iheap.add: id %d already present" id);
    let cap = Array.length t.hdata in
    if t.hlen = cap then begin
      let ndata = Array.make (max 16 (2 * cap)) (-1) in
      Array.blit t.hdata 0 ndata 0 t.hlen;
      t.hdata <- ndata
    end;
    set t pos t.hlen id;
    t.hlen <- t.hlen + 1;
    sift_up t less ctx pos (t.hlen - 1)

  let remove t ~less ctx ~pos ~id =
    if not (mem t ~pos ~id) then false
    else begin
      let slot = pos.(id) in
      pos.(id) <- -1;
      t.hlen <- t.hlen - 1;
      if slot < t.hlen then begin
        set t pos slot t.hdata.(t.hlen);
        (* The moved element may violate the invariant in either direction;
           exactly one of the two sifts does work. *)
        sift_up t less ctx pos slot;
        sift_down t less ctx pos slot
      end;
      true
    end

  let min_id t = if t.hlen = 0 then -1 else t.hdata.(0)

  let iter t ~f =
    for slot = 0 to t.hlen - 1 do
      f t.hdata.(slot)
    done

  let clear t ~pos =
    for slot = 0 to t.hlen - 1 do
      pos.(t.hdata.(slot)) <- -1
    done;
    t.hdata <- [||];
    t.hlen <- 0

  let invariant heaps ~less ctx ~pos =
    let ok = ref true and held = ref 0 in
    Array.iter
      (fun t ->
        if t.hlen < 0 || t.hlen > Array.length t.hdata then ok := false
        else begin
          held := !held + t.hlen;
          for slot = 1 to t.hlen - 1 do
            let parent = (slot - 1) / 2 in
            if less ctx t.hdata.(slot) t.hdata.(parent) then ok := false
          done;
          for slot = 0 to t.hlen - 1 do
            let id = t.hdata.(slot) in
            if id < 0 || id >= Array.length pos || pos.(id) <> slot then ok := false
          done
        end)
      heaps;
    let registered = ref 0 in
    Array.iter (fun p -> if p >= 0 then incr registered) pos;
    !ok && !registered = !held
end
