(** Append-only, crash-tolerant ledger (schema [slocal.request/1]).

    One record type for every writer.  Every kernel-facing CLI
    subcommand and every bench run appends one record (op, argv,
    wall-clock interval, outcome and seed, problem canonical hashes,
    the final counters and histogram quantiles, artifact paths);
    [slocal serve --record] appends one per work request (op,
    problems, cost summary and the request body).  The reader ignores
    fields it does not know, such as the [kernel] field of records
    written before the RE kernel became fixed and the [gauges] field
    of records written while the registry still had gauges.
    Multi-session lower-bound campaigns so get one durable history:
    [slocal runs list|show|diff|gc] renders and maintains it, and
    [slocal client --replay] re-sends its bodies.

    Crash tolerance mirrors {!Trace}: one flushed line per record, a
    tolerant reader that skips-and-counts damaged lines, so a run
    killed mid-append costs one record, never the ledger. *)

val schema_version : string
(** ["slocal.request/1"]. *)

type hist_summary = {
  hs_count : int;
  hs_sum : int;
  hs_p50 : int;
  hs_p90 : int;
  hs_p99 : int;
  hs_max : int;
}
(** Quantile summary of one registry histogram at run end. *)

type record = {
  id : string;
      (** Short hex id for a run, the request id for a daemon
          request. *)
  op : string;
      (** The CLI subcommand, ["bench"], or the daemon request's op;
          [""] on a legacy run record. *)
  problems : (string * int) list;
      (** [(name, canonical hash)] of every parsed problem. *)
  wall_ns : int;
  alloc_b : int;
      (** Bytes allocated on the recording (or coordinating) domain. *)
  cache_hits : int;  (** [re.cache_hits] over the run or request. *)
  cache_misses : int;  (** [re.cache_misses] over the run or request. *)
  outcome : string;  (** ["ok"], ["error"] or ["exit"]. *)
  argv : string list;  (** Run-only fields from here on. *)
  started_at : float;  (** Unix epoch seconds. *)
  exit_code : int;
  seed : int option;
  counters : (string * int) list;  (** Non-zero counters at run end. *)
  histograms : (string * hist_summary) list;
  artifacts : (string * string) list;
      (** [(kind, path)]: trace, profile, openmetrics, bench JSON. *)
  majors : int;  (** Major collections over the run. *)
  top_heap_words : int;  (** [Gc.top_heap_words] at run end. *)
  body : Json.t option;
      (** The verbatim daemon request, for [slocal client --replay]. *)
}
(** The writer puts the fields from [id] to [outcome] first, in this
    order; the rest follow and are written only when they differ from
    {!empty}.  A daemon request leaves them all at their defaults, so
    the [request] object of a daemon reply keeps its exact key list. *)

val empty : record
(** Every field at its default ([""], [0], [[]], [None]). *)

val wall_seconds : record -> float

(** {1 Ledger location} *)

val default_path : unit -> string option
(** [SLOCAL_LEDGER] when set (the values [""], ["off"] and ["none"]
    disable the ledger: [None]); otherwise [.slocal/runs.jsonl]. *)

(** {1 Codec, append and read} *)

val to_json : record -> Json.t

val of_json : Json.t -> (record, string) result
(** Reads [slocal.request/1], and the [slocal.run/1] run records
    written before the two record types merged: same field names, no
    [op], and [wall_ns] derived from [finished_at - started_at].
    Absent optional fields take their {!empty} value; unknown fields
    are ignored. *)

val append : path:string -> record -> (unit, string) result
(** Append one record as a single flushed JSONL line, creating the
    file and its directory as needed. *)

type read_result = {
  records : record list;
  skipped : int;  (** Non-blank lines that {!of_json} rejects. *)
}

val read_file : string -> read_result
(** Tolerant read: damaged lines are counted in [skipped], never
    fatal.  @raise Sys_error when the file cannot be opened. *)

(** {1 Selection and comparison} *)

val find : read_result -> string -> (record, string) result
(** [find r key] resolves a CLI run designator: an all-digits [key] is
    a 1-based index into the ledger (oldest first), anything else an
    id prefix that must match exactly one record. *)

val diff : record -> record -> (string * int * int) list
(** [(name, value_a, value_b)] over the union of the two records'
    counters (missing = 0), sorted, equal entries dropped. *)

val gc : path:string -> keep:int -> (int * int, string) result
(** Rewrite the ledger atomically keeping only the newest [keep]
    records overall, whatever wrote them, dropping damaged lines.  Returns
    [(kept, dropped)]; a negative [keep] is an [Error] and leaves the
    file alone. *)

(** {1 The in-process run context}

    The CLI and the bench harness wrap each run: {!begin_run} at
    startup, [note_*] as information becomes available, {!finish_run}
    exactly once at the end (idempotent, so an [at_exit] safety net
    and a normal teardown can both call it).  All of these are no-ops
    when no run is active, and {!finish_run} is best-effort: a
    read-only working directory never fails the run itself. *)

val begin_run : op:string -> argv:string list -> unit
(** Opens the context for operation [op] (the subcommand name, or
    ["bench"]) and snapshots the GC allocation/major-cycle
    baselines that {!finish_run} turns into the record's [alloc_b]
    and [majors] deltas. *)

val note_seed : int -> unit
val note_problem : name:string -> hash:int -> unit
val note_artifact : kind:string -> string -> unit
val note_exit : int -> unit

val finish_run : outcome:string -> unit
(** Snapshot the telemetry registry into a {!record} and append it to
    {!default_path} (no-op when the ledger is disabled, the context
    was never opened, or the record was already written). *)
