type id =
  | Parse_error
  | Nondet_source
  | Poly_compare
  | Unstable_sort
  | Global_mutable
  | Stray_io
  | Missing_mli
  | Wall_clock
  | Raw_concurrency
  | Stale_suppress
  | Typed_nondet
  | Typed_poly_compare
  | Policy_purity
  | Hot_alloc
  | Test_only_export

type severity = Error | Warning

type tier = Syntactic | Typed

let all =
  [
    Parse_error;
    Nondet_source;
    Poly_compare;
    Unstable_sort;
    Global_mutable;
    Stray_io;
    Missing_mli;
    Wall_clock;
    Raw_concurrency;
    Stale_suppress;
    Typed_nondet;
    Typed_poly_compare;
    Policy_purity;
    Hot_alloc;
    Test_only_export;
  ]

let to_string = function
  | Parse_error -> "parse-error"
  | Nondet_source -> "nondet-source"
  | Poly_compare -> "poly-compare"
  | Unstable_sort -> "unstable-sort"
  | Global_mutable -> "global-mutable"
  | Stray_io -> "stray-io"
  | Missing_mli -> "missing-mli"
  | Wall_clock -> "wall-clock"
  | Raw_concurrency -> "raw-concurrency"
  | Stale_suppress -> "stale-suppress"
  | Typed_nondet -> "typed-nondet"
  | Typed_poly_compare -> "typed-poly-compare"
  | Policy_purity -> "policy-purity"
  | Hot_alloc -> "hot-alloc"
  | Test_only_export -> "test-only-export"

let code = function
  | Parse_error -> "RJL000"
  | Nondet_source -> "RJL001"
  | Poly_compare -> "RJL002"
  | Unstable_sort -> "RJL003"
  | Global_mutable -> "RJL004"
  | Stray_io -> "RJL005"
  | Missing_mli -> "RJL006"
  | Wall_clock -> "RJL007"
  | Raw_concurrency -> "RJL008"
  | Stale_suppress -> "RJL009"
  | Typed_nondet -> "RJL100"
  | Typed_poly_compare -> "RJL101"
  | Policy_purity -> "RJL102"
  | Hot_alloc -> "RJL103"
  | Test_only_export -> "RJL104"

let tier = function
  | Typed_nondet | Typed_poly_compare | Policy_purity | Hot_alloc | Test_only_export -> Typed
  | _ -> Syntactic

let of_string s =
  let rec find = function
    | [] -> None
    | r :: rest -> if String.equal (to_string r) s || String.equal (code r) s then Some r else find rest
  in
  find all

let describe = function
  | Parse_error -> "file does not parse with the project compiler"
  | Nondet_source ->
      "nondeterminism source (Random.self_init, Unix.*, Hashtbl.iter/fold/hash) in lib/"
  | Poly_compare ->
      "bare polymorphic compare/(=)/(<) in a comparator passed to a sort; use Float.compare/Int.compare"
  | Unstable_sort ->
      "Array.sort comparator without a total id/index tie-break (unstable sort is a replay hazard)"
  | Global_mutable -> "toplevel mutable state (ref/array/table) in a policy module"
  | Stray_io -> "direct console I/O outside bin/, bench/ and the stats display modules"
  | Missing_mli -> "lib/ module without a .mli interface"
  | Wall_clock ->
      "wall-clock/monotonic time read (Sys.time, Unix.gettimeofday/time/times, Mtime*) in lib/"
  | Raw_concurrency ->
      "raw concurrency primitive (Domain.spawn/join, Atomic.*, Mutex.*, Condition.*) in lib/ \
       outside Stats.Pool"
  | Stale_suppress ->
      "suppression comment that matches no finding (dead allowlist entries can mask future \
       regressions)"
  | Typed_nondet ->
      "banned nondet/clock/IO/concurrency path reached through an alias, rebinding or functor \
       application (typed tier; resolved Path.t re-check of RJL001/005/007/008)"
  | Typed_poly_compare ->
      "polymorphic compare/min/max or structural (=)/(<) instantiated at a float-bearing, \
       abstract or functional type (typed tier; subsumes RJL002's lambda heuristics)"
  | Policy_purity ->
      "Policy_registry entry point transitively reaches mutable toplevel state, I/O, the clock \
       or Random outside the Scope-allowlisted modules (typed tier call-graph proof)"
  | Hot_alloc ->
      "allocating construct (closure, tuple/constructor/record, partial application, fresh \
       float box) inside a [@rejlint.hot] function (typed tier static zero-alloc proof)"
  | Test_only_export ->
      "lib/ .mli value with no caller outside its own module and test/ (typed tier; a \
       deliberate test oracle carries an allow comment with its reason)"

(* Rule ids are ordered by their catalog position so reports are stable. *)
let index r =
  let rec go i = function
    | [] -> i
    | r' :: rest -> if r' = r then i else go (i + 1) rest
  in
  go 0 all

let compare_id a b = Int.compare (index a) (index b)
