type kind = Lib | Bin | Bench | Test | Examples | Other

type t = { kind : kind; policy : bool; display : bool; pool : bool }

let make ?(policy = false) ?(display = false) ?(pool = false) kind =
  { kind; policy; display; pool }

let kind t = t.kind
let policy t = t.policy
let pool t = t.pool

(* Console I/O is the driver/display layers' job; in lib/ only the
   display modules may perform it.  Shared by both lint tiers so they
   agree on where RJL005/RJL100 apply. *)
let io_allowed t =
  match t.kind with
  | Bin | Bench | Examples | Test | Other -> true
  | Lib -> t.display

(* The stats display modules are the one place in lib/ allowed to talk to
   the console (they exist to render tables and charts for humans). *)
let display_modules = [ "lib/stats/table.ml"; "lib/stats/chart.ml" ]

(* The domain pool is the one place in lib/ allowed to touch raw
   concurrency primitives (RJL008); everything else submits to a Pool.t. *)
let pool_modules = [ "lib/stats/pool.ml" ]

let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  (* Strip leading "./" segments so classification matches however the
     driver was invoked. *)
  let rec strip p = if String.length p > 2 && String.sub p 0 2 = "./" then strip (String.sub p 2 (String.length p - 2)) else p in
  strip path

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let classify path =
  let p = normalize path in
  if has_prefix ~prefix:"lib/" p then
    let policy = has_prefix ~prefix:"lib/core/" p || has_prefix ~prefix:"lib/baselines/" p in
    let display = List.mem p display_modules in
    let pool = List.mem p pool_modules in
    { kind = Lib; policy; display; pool }
  else if has_prefix ~prefix:"bin/" p then make Bin
  else if has_prefix ~prefix:"bench/" p then make Bench
  else if has_prefix ~prefix:"test/" p then make Test
  else if has_prefix ~prefix:"examples/" p then make Examples
  else make Other

let of_string = function
  | "lib" -> Some (make Lib)
  | "policy" -> Some (make Lib ~policy:true)
  | "display" -> Some (make Lib ~display:true)
  | "pool" -> Some (make Lib ~pool:true)
  | "bin" -> Some (make Bin)
  | "bench" -> Some (make Bench)
  | "test" -> Some (make Test)
  | "examples" -> Some (make Examples)
  | "auto" | "other" -> Some (make Other)
  | _ -> None
