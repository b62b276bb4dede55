(** Append-only, crash-tolerant run ledger (schema [slocal.run/1]).

    Every kernel-facing CLI subcommand and every bench run appends one
    manifest record to a JSONL ledger, giving multi-session
    lower-bound campaigns a durable history: what ran, with which
    kernel and seed, over which problems (canonical hashes), how it
    ended, what the counters said and where the trace/profile/metric
    artifacts went.  [slocal runs list|show|diff|gc] renders and
    maintains the file.

    Crash tolerance mirrors {!Trace}: one flushed line per record, a
    tolerant reader that skips-and-counts damaged lines, so a run
    killed mid-append costs one record, never the ledger. *)

val schema_version : string
(** ["slocal.run/1"]. *)

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
  id : string;  (** Short hex id, unique enough for prefix lookup. *)
  argv : string list;
  started_at : float;  (** Unix epoch seconds. *)
  finished_at : float;
  outcome : string;  (** ["ok"], ["error"] or ["exit"]. *)
  exit_code : int;
  kernel : string option;  (** [--kernel] mode, when the command has one. *)
  seed : int option;
  problems : (string * int) list;
      (** [(name, canonical hash)] of every parsed problem. *)
  counters : (string * int) list;  (** Non-zero counters at run end. *)
  gauges : (string * int) list;
  histograms : (string * hist_summary) list;
  artifacts : (string * string) list;
      (** [(kind, path)]: trace, profile, openmetrics, bench JSON. *)
  alloc_b : int;
      (** Bytes allocated on the recording domain over the run
          ([Gc.allocated_bytes] delta).  Additive [slocal.run/1]
          field: [0] on records written before it existed. *)
  majors : int;
      (** Major collections over the run.  Additive field, [0] on
          older records. *)
  top_heap_words : int;
      (** [Gc.top_heap_words] at run end — peak heap size.  Additive
          field, [0] on older records. *)
}

val wall_seconds : record -> float

(** {1 Ledger location} *)

val default_path : unit -> string option
(** [SLOCAL_LEDGER] when set (the values [""], ["off"] and ["none"]
    disable the ledger: [None]); otherwise [.slocal/runs.jsonl]. *)

(** {1 Codec, append and read} *)

val to_json : record -> Json.t
val of_json : Json.t -> (record, string) result

val append : path:string -> record -> (unit, string) result
(** Append one record as a single flushed JSONL line, creating the
    file and its directory as needed. *)

type read_result = {
  records : record list;
  skipped : int;  (** Lines that are not valid JSON or are damaged
                      [slocal.run/1] records. *)
  foreign : int;
      (** Well-formed JSON lines whose [schema] field names another
          schema ([slocal.request/1] records in a shared ledger, a
          future [slocal.run/2]) — tolerated, counted, never treated
          as corruption. *)
}

val read_file : string -> read_result
(** Tolerant read: damaged lines are counted in [skipped],
    other-schema lines in [foreign]; neither is fatal.
    @raise Sys_error when the file cannot be opened. *)

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
    records (damaged and foreign lines are dropped too — [gc] is a
    run-ledger compactor; keep request records in their own file if
    they must survive it).  Returns [(kept, dropped)]. *)

(** {1 Per-request records (schema [slocal.request/1])}

    [slocal serve --record FILE] appends one record per work request:
    id, op, the problems it touched (canonical hashes), kernel and job
    width, wall/allocation cost, the RE-cache hit/miss delta and the
    request body — the durable, replayable per-request companion of
    the per-run manifest above. *)

type request_record = {
  rr_id : string;  (** Request id (unique within a daemon run). *)
  rr_op : string;  (** ["re"], ["sequence"], ["solve"], ["audit"], …*)
  rr_problems : (string * int) list;
      (** [(name, canonical hash)] of every problem the request
          parsed. *)
  rr_kernel : string option;  (** Kernel mode the request ran under. *)
  rr_jobs : int;  (** Worker width ([0] when the op never parallelizes). *)
  rr_wall_ns : int;
  rr_alloc_b : int;
      (** Coordinating-domain allocation over the request window. *)
  rr_cache_hits : int;  (** [re.cache_hits] delta over the window. *)
  rr_cache_misses : int;  (** [re.cache_misses] delta over the window. *)
  rr_outcome : string;  (** ["ok"] or ["error"]. *)
  rr_body : Json.t option;
      (** The verbatim request object, so the record can be replayed
          ([slocal serve --record] writes it, [slocal client --replay]
          re-sends it).  Serialized only when present. *)
}

val request_to_json : request_record -> Json.t
val request_of_json : Json.t -> (request_record, string) result

val append_request : path:string -> request_record -> (unit, string) result
(** Append one request record as a single flushed JSONL line (same
    crash-tolerance contract as {!append}). *)

val read_requests_file : string -> request_record list * int
(** All [slocal.request/1] records of a JSONL file in order, plus the
    count of non-blank lines that are damaged or of another schema
    (run records in a shared file land in the skip count here, the
    mirror image of [foreign] above).
    @raise Sys_error when the file cannot be opened. *)

(** {1 The in-process run context}

    The CLI and the bench harness wrap each run: {!begin_run} at
    startup, [note_*] as information becomes available, {!finish_run}
    exactly once at the end (idempotent, so an [at_exit] safety net
    and a normal teardown can both call it).  All of these are no-ops
    when no run is active, and {!finish_run} is best-effort: a
    read-only working directory never fails the run itself. *)

val begin_run : argv:string list -> unit
(** Opens the context and snapshots the GC allocation/major-cycle
    baselines that {!finish_run} turns into the record's [alloc_b]
    and [majors] deltas. *)

val note_kernel : string -> unit
val note_seed : int -> unit
val note_problem : name:string -> hash:int -> unit
val note_artifact : kind:string -> string -> unit
val note_exit : int -> unit

val finish_run : outcome:string -> unit
(** Snapshot the telemetry registry into a {!record} and append it to
    {!default_path} (no-op when the ledger is disabled, the context
    was never opened, or the record was already written). *)
