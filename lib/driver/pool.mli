(** The multicore job pool: a fixed set of OCaml 5 domains draining one
    MPMC task queue.

    Where the fork scheduler ({!Batch}) pays for a process per job slice —
    rebuilding or copy-on-write'ing the intern table, the per-target
    matchers, and the cache's memory tier in every child — a pool's
    domains {e share} all of that state in one address space: one striped
    intern table ({!Ir.Hashcons}), one warm DP table per target
    ({!Registry.matcher_for}), one two-tier cache ({!Cache}). A job's
    interning and labelling work is visible to every later job on any
    domain, which is the amortization the serve daemon exists for.

    Tasks may be submitted from any domain or systhread; the serve
    daemon's connection handlers all feed one pool. *)

type t

val default_domains : unit -> int
(** [Domain.recommended_domain_count () - 1] (at least 1): leave a core
    for the submitting/coordinating domain. *)

val create : ?domains:int -> unit -> t
(** Spawn the worker domains (default {!default_domains}). Shared state
    (machine registry, per-target matchers) is built on first use, behind
    the registry's mutex; nothing is built up front. *)

val size : t -> int
(** Worker domains in the pool. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task. Tasks run in FIFO order, one per free worker; a task
    that raises is dropped (the worker survives). Raises [Invalid_argument]
    after {!shutdown}. *)

val run_jobs : t -> ?cache:Cache.t -> Job.t list -> Job.result list
(** Run every job through the pool and block until all complete. Results
    come back in input order whatever the domain interleaving, so output
    built from them is deterministic for any pool size. A job that raises
    is reported [Failed], mirroring the fork scheduler. Callable
    concurrently from several submitters (each call has its own
    completion latch). *)

val shutdown : t -> unit
(** Close the queue, drain remaining tasks, and join every worker. *)
