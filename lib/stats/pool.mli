(** A persistent work-sharing domain pool: the substrate every parallel
    region in the repository runs on.

    A pool spawns its worker domains once ([create]) and reuses them for
    every subsequent [parallel_map]/[parallel_for], replacing the
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

val default_domains : unit -> int
(** [max 1 (recommended_domain_count - 1)], leaving a core for the
    caller (who participates in every region anyway). *)

val create : ?domains:int -> unit -> t
(** Spawns [domains - 1] worker domains (default {!default_domains}).
    [domains = 1] spawns none: every region runs inline in the caller.
    Raises [Invalid_argument] when [domains < 1] — silent clamping hid
    misconfigured widths from the CLI. *)

val size : t -> int
(** Total parallelism: spawned workers plus the submitting domain. *)

val shutdown : t -> unit
(** Drains queued tasks, stops and joins the workers.  Idempotent.
    Submitting to a shut-down pool raises [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val parallel_map : ?chunk_size:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Chunked data-parallel map with input-ordered results.  [chunk_size]
    defaults to ~4 chunks per domain; it may only affect wall time,
    never the result.  [f] must be safe to run concurrently with itself
    (in this codebase: do not share an {!Rng.t} or a telemetry registry
    across items). *)

val parallel_map_list : ?chunk_size:int -> t -> ('a -> 'b) -> 'a list -> 'b list

val parallel_for : ?chunk_size:int -> t -> int -> (int -> unit) -> unit
(** [parallel_for pool n f] runs [f 0 .. f (n-1)]; each index is applied
    exactly once.  [f] typically writes slot [i] of a preallocated
    array — distinct indices only, per the concurrency-safety rule. *)

(** {1 The process-wide default pool}

    [Sched_stats.Parallel] (and through it [Exp_util.per_seed]) submits
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
