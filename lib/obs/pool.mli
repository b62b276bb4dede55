(** A Domainslib-style work pool on the OCaml 5 stdlib ([Domain],
    [Atomic]) for embarrassingly parallel fan-outs.  Its one consumer
    is the per-problem zero-round decision batch
    ({!Slocal_core.Zero_round.decide_batch}, [slocal sweep --jobs]).

    Tasks are claimed from a shared atomic index and results written
    into index-addressed slots, so {!run} and {!map} return results
    {e byte-identical} to a sequential run whatever the schedule.
    [jobs <= 1] (the default) runs inline in the calling
    domain with no spawns.

    Accounting, exported through OpenMetrics and the run ledger
    (DESIGN.md §6):
    - [par.tasks_submitted], [par.tasks_completed] — tasks handed to /
      finished by the pool;
    - [par.tasks_stolen] — tasks executed by a spawned (non-primary)
      domain;
    - [par.merges] — worker joins, each followed by absorbing that
      worker's telemetry store into the caller's.

    Each spawned worker records telemetry into a private store
    ({!Telemetry.private_store}), which the caller absorbs after all
    joins, in worker order ({!Telemetry.absorb}): counters add,
    histograms merge and the worker's queued trace events reach the
    sink.  While a trace sink is installed,
    each worker wraps its claiming loop in a [par.worker] span — so a
    [--jobs N] trace carries at least [N] distinct domain ids. *)

val run : jobs:int -> int -> (int -> 'a) -> 'a array
(** [run ~jobs n f] evaluates [f i] for [0 <= i < n] on [min jobs n]
    domains (the caller plus spawned workers) and returns the results
    in index order.  Tasks must be independent: they may not share
    mutable state without a lock.  A shared [Problem.t] is safe: its
    constraints' lazily built down closures are published with one
    atomic store each, so a concurrent reader sees either none or a
    complete, immutable table.  If a task raises, the remaining tasks
    still run and the first exception is re-raised after all workers
    are joined.  A task
    must not itself call [run] with [jobs > 1]: that would spawn
    domains from a worker and oversubscribe the machine.
    @raise Invalid_argument on a negative [n]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f l] is {!run} over the elements of [l], preserving
    order. *)
