(** The rejlint rule catalog.

    Every rule has a stable kebab-case name (used in reports and in
    [(* rejlint: allow <name> *)] suppression comments) and a short
    [RJLnnn] code accepted as a synonym.  Rules below RJL100 run on the
    parsetree (tier 1, syntactic); RJL1xx rules run on the Typedtree
    loaded from [.cmt] files (tier 2, typed). *)

type id =
  | Parse_error  (** RJL000: the file does not parse. *)
  | Nondet_source  (** RJL001: banned nondeterminism source in [lib/]. *)
  | Poly_compare  (** RJL002: polymorphic compare inside a sort comparator. *)
  | Unstable_sort  (** RJL003: unstable [Array.sort] without a total tie-break. *)
  | Global_mutable  (** RJL004: toplevel mutable state in a policy module. *)
  | Stray_io  (** RJL005: console I/O outside the display/driver layers. *)
  | Missing_mli  (** RJL006: [lib/] module without an interface. *)
  | Wall_clock
      (** RJL007: wall-clock/monotonic time read anywhere in [lib/]. *)
  | Raw_concurrency
      (** RJL008: raw concurrency primitive ([Domain.spawn]/[join],
          [Atomic.*], [Mutex.*], [Condition.*]) in [lib/] outside the
          domain-pool module ([lib/stats/pool.ml]) — everything else must
          go through [Sched_stats.Pool] so scheduling stays deterministic
          and domains are never oversubscribed. *)
  | Stale_suppress
      (** RJL009 (warning): a [(* rejlint: allow ... *)] comment that
          silences no finding.  Dead allowlist entries are reported so
          they cannot quietly mask a future regression.  Only emitted
          when every tier the entry's rules belong to actually ran. *)
  | Typed_nondet
      (** RJL100: alias-proof re-check of RJL001/005/007/008 on resolved
          [Path.t]s — catches rebindings ([let it = Hashtbl.iter]),
          module aliases ([module H = Hashtbl]), eta-expansions and
          functor-applied paths ([Hashtbl.Make(..).iter]) that the
          parsetree pass cannot see. *)
  | Typed_poly_compare
      (** RJL101: polymorphic [compare]/[min]/[max] — in any position —
          and structural [=]/[<>]/[<]/[<=]/[>]/[>=] instantiated at a
          float-bearing, abstract or functional type.  Comparisons
          against a constant constructor literal ([x = None], [l <> []])
          only inspect the tag and are accepted. *)
  | Policy_purity
      (** RJL102: an intra-library call-graph proof that no
          [Policy_registry] entry point transitively reaches mutable
          toplevel state, console I/O, wall-clock reads or [Random.*]
          outside the [Scope]-allowlisted modules. *)
  | Hot_alloc
      (** RJL103: static zero-alloc — inside a [[@rejlint.hot]] function
          body, flags closures, tuples, non-constant constructors,
          records, arrays, lazy/object/pack, [ref] creation, partial
          applications and float arithmetic in return position (a fresh
          box at the boundary).  Subtrees marked [[@rejlint.cold]] are
          skipped.  Reading an already-stored float (e.g. [a.(i)]) is
          deliberately not flagged: boundary boxing is governed by the
          dynamic minor-words ceiling, this rule proves the steady-state
          loop allocates no structures. *)
  | Test_only_export
      (** RJL104: a [val] in a [lib/] interface whose every use outside
          its own compilation unit lies in [test/] (or that has none).
          Callers in [lib/], [bin/], [bench/] and [examples/] count;
          an oracle that tests use to check other code is kept with an
          allow comment saying why. *)

type severity = Error | Warning

type tier = Syntactic | Typed

val all : id list
(** Catalog order; reports list findings of equal position in this order. *)

val to_string : id -> string
val code : id -> string

val tier : id -> tier
(** Which analysis tier emits the rule.  [Stale_suppress] is attributed
    to the syntactic tier (the suppression scan is part of it). *)

val of_string : string -> id option
(** Accepts both the kebab-case name and the [RJLnnn] code. *)

val describe : id -> string
val compare_id : id -> id -> int
