open Sched_model
open Sched_stats

type arrivals =
  | Poisson of float
  | Batched of { every : float; size : int }
  | Bursty of { rate : float; burst_every : float; burst_size : int }
  | Diurnal of { base_rate : float; amplitude : float; period : float }
  | All_at_zero

type deadlines =
  | No_deadlines
  | Laxity of Dist.t
  | Slot_laxity of { min_slots : int; max_slots : int }

type t = {
  name : string;
  n : int;
  m : int;
  arrivals : arrivals;
  sizes : Dist.t;
  weights : Dist.t option;
  shape : Shape.t;
  deadlines : deadlines;
  alpha : float;
}

let make ?name ?arrivals ?(sizes = Dist.uniform ~lo:1. ~hi:10.) ?weights
    ?(shape = Shape.identical) ?(deadlines = No_deadlines) ?(alpha = 3.0) ~n ~m () =
  if n <= 0 then invalid_arg "Gen.make: n must be positive";
  if m <= 0 then invalid_arg "Gen.make: m must be positive";
  let arrivals =
    match arrivals with
    | Some a -> a
    | None ->
        (* Default: load the fleet to ~80% given the mean size. *)
        let mean_size = match Dist.mean sizes with Some mu -> mu | None -> 1. in
        Poisson (0.8 *. float_of_int m /. mean_size)
  in
  let name =
    match name with
    | Some s -> s
    | None -> Printf.sprintf "gen(n=%d,m=%d,%s,%s)" n m (Dist.name sizes) (Shape.name shape)
  in
  { name; n; m; arrivals; sizes; weights; shape; deadlines; alpha }

(* The arrival process as a generator: each call returns the next job's
   release.  Every kind yields nondecreasing releases, so id order is
   (release, id) order and the jobs can be handed out as they are drawn.
   [arrival_rng] serves the arrival process alone, so when the releases
   are drawn does not change them. *)
let next_release t rng =
  match t.arrivals with
  | All_at_zero -> fun () -> 0.
  | Poisson rate ->
      assert (rate > 0.);
      let clock = ref 0. in
      fun () ->
        clock := !clock +. Rng.exponential rng rate;
        !clock
  | Batched { every; size } ->
      assert (every > 0. && size > 0);
      let k = ref 0 in
      fun () ->
        let r = float_of_int (!k / size) *. every in
        incr k;
        r
  | Diurnal { base_rate; amplitude; period } ->
      assert (base_rate > 0. && amplitude >= 0. && amplitude <= 1. && period > 0.);
      (* Thinning (Lewis-Shedler): draw from the envelope rate
         [base_rate * (1 + amplitude)] and accept with probability
         [intensity(t) / envelope]. *)
      let envelope = base_rate *. (1. +. amplitude) in
      let clock = ref 0. in
      let rec next () =
        clock := !clock +. Rng.exponential rng envelope;
        let intensity =
          base_rate *. (1. +. (amplitude *. sin (2. *. Float.pi *. !clock /. period)))
        in
        if Rng.float rng < intensity /. envelope then !clock else next ()
      in
      next
  | Bursty { rate; burst_every; burst_size } ->
      assert (rate > 0. && burst_every > 0. && burst_size >= 0);
      (* A burst fires when the next Poisson arrival would pass it and the
         whole burst still fits in [n]; its jobs share the burst's time.
         The clock never passes the next burst while bursts still fit, so
         the releases come out sorted. *)
      let clock = ref 0. and filled = ref 0 and next_burst = ref burst_every in
      let burst_left = ref 0 in
      let rec next () =
        if !burst_left > 0 then begin
          decr burst_left;
          incr filled;
          !clock
        end
        else begin
          let dt = Rng.exponential rng rate in
          if !clock +. dt >= !next_burst && !filled + burst_size <= t.n then begin
            clock := !next_burst;
            next_burst := !next_burst +. burst_every;
            burst_left := burst_size;
            next ()
          end
          else begin
            clock := !clock +. dt;
            incr filled;
            !clock
          end
        end
      in
      next

(* The smallest size, by a [<] scan that reads each size unboxed
   ([Array.fold_left Float.min infinity] boxes every one through its
   closure).  Sizes are positive and never NaN, so the result has the
   bits the fold would give; all-infinite sizes give infinity, as the
   fold does. *)
let min_size sizes =
  let mn = ref Float.infinity in
  for k = 0 to Array.length sizes - 1 do
    let p = sizes.(k) in
    if p < !mn then mn := p
  done;
  !mn

let fleet t = Machine.fleet ~alpha:t.alpha t.m
let label t ~seed = Printf.sprintf "%s#%d" t.name seed

let jobs t ~seed () =
  let rng = Rng.create seed in
  let arrival_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  let shape_rng = Rng.split rng in
  let weight_rng = Rng.split rng in
  let deadline_rng = Rng.split rng in
  let next_release = next_release t arrival_rng in
  (* One size vector, refilled for every job: [Job.create] copies it. *)
  let sizes = Array.make t.m 0. in
  let rec from id () =
    if id >= t.n then Seq.Nil
    else begin
      let release = next_release () in
      let base = Dist.sample t.sizes size_rng in
      Shape.fill t.shape shape_rng ~base sizes;
      let weight = match t.weights with None -> 1. | Some d -> Dist.sample d weight_rng in
      let release, deadline =
        match t.deadlines with
        | No_deadlines -> (release, None)
        | Laxity d ->
            let lax = Float.max 1.01 (Dist.sample d deadline_rng) in
            let pmin = min_size sizes in
            (release, Some (release +. (lax *. pmin)))
        | Slot_laxity { min_slots; max_slots } ->
            assert (0 < min_slots && min_slots <= max_slots);
            let r = Float.of_int (int_of_float release) in
            let pmin = min_size sizes in
            let need = max min_slots (int_of_float (Float.ceil pmin)) in
            let span = need + Rng.int deadline_rng (max 1 (max_slots - need + 1)) in
            (r, Some (r +. float_of_int span))
      in
      Seq.Cons (Job.create ~id ~release ~weight ?deadline ~sizes (), from (id + 1))
    end
  in
  from 0 ()

let instance t ~seed =
  Instance.create ~name:(label t ~seed) ~machines:(fleet t) ~jobs:(List.of_seq (jobs t ~seed)) ()

let describe t =
  let arr =
    match t.arrivals with
    | Poisson r -> Printf.sprintf "poisson(%g)" r
    | Batched { every; size } -> Printf.sprintf "batched(%g,%d)" every size
    | Bursty { rate; burst_every; burst_size } ->
        Printf.sprintf "bursty(%g,%g,%d)" rate burst_every burst_size
    | Diurnal { base_rate; amplitude; period } ->
        Printf.sprintf "diurnal(%g,%g,%g)" base_rate amplitude period
    | All_at_zero -> "all-at-zero"
  in
  Printf.sprintf "%s: n=%d m=%d arrivals=%s sizes=%s shape=%s" t.name t.n t.m arr
    (Dist.name t.sizes) (Shape.name t.shape)
