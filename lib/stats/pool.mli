(** A persistent work-sharing domain pool: the substrate every parallel
    region in the repository runs on.

    A pool spawns its worker domains once, when it is created, and reuses
    them for every subsequent [parallel_map], replacing the
    spawn-per-call scheme that left cores idle between regions.  The
    submitting domain always participates ("work sharing"): it pops and
    runs queued chunk tasks until its own batch completes.  That rule
    makes the pool {e reentrant}: a task that starts another parallel
    region on the same pool simply feeds the shared queue and helps
    drain it — nesting (experiments × seeds) neither deadlocks nor
    spawns additional domains.

    Determinism contract, pinned by the qcheck/differential tests:
    results are assembled by input index, so
    [parallel_map pool f a = Array.map f a] observationally for pure (or
    item-local effectful) [f], regardless of pool size, chunk size or
    scheduling; if several items raise, the exception re-raised in the
    caller is the one from the lowest input index.  With [domains = 1]
    regions run inline — byte-identical to sequential code. *)

type t

(* rejlint: allow test-only-export — tests check which pool ambient resolves to with it *)
val size : t -> int
(** Total parallelism: spawned workers plus the submitting domain. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** Spawns [domains - 1] worker domains (default {!default_domains};
    [domains = 1] spawns none and every region runs inline), runs [f] on
    the pool, then drains queued tasks and joins the workers, also on
    exception.  Raises [Invalid_argument] when [domains < 1] (silent
    clamping hid misconfigured widths from the CLI) and when a region is
    submitted to the pool after [f] returned. *)

val parallel_map : ?chunk_size:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Chunked data-parallel map with input-ordered results.  [chunk_size]
    defaults to ~4 chunks per domain; it may only affect wall time,
    never the result.  [f] must be safe to run concurrently with itself
    (in this codebase: do not share an {!Rng.t} or a telemetry registry
    across items). *)

val parallel_map_list : ?chunk_size:int -> t -> ('a -> 'b) -> 'a list -> 'b list

(** {1 The process-wide default pool}

    [Exp_util.per_seed] submits
    to the {e ambient} pool: the pool whose task the calling domain is
    currently executing, falling back to a lazily created process-wide
    default.  The CLI's [--domains] flag resizes the default before
    first use. *)

val default : unit -> t
(** The process-wide pool, created on first use at the last size given
    to {!set_default_domains} (or {!default_domains}). *)

val set_default_domains : int -> unit
(** Sets the default pool's size; if the default pool already exists at
    a different size it is shut down and recreated lazily.  Call at
    startup, not between live regions.  Raises [Invalid_argument] when
    the size is < 1. *)

val ambient : unit -> t
(** The pool executing the current task, or {!default} outside any. *)
