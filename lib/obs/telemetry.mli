(** Structured telemetry: monotonic-clock spans, named counters and
    histograms, and pluggable sinks — recorded into one store, with no
    locks on the hot path.

    The expensive kernels of this repository — the backtracking solver,
    the RE operator, the lift construction, the exhaustive zero-round
    search, graph generation — are instrumented with {e metrics}
    (always-on, one array store each) and {e spans} (emitted only
    when a sink is installed).  The default sink is {!null_sink}:
    spans reduce to a single branch and a direct call of the wrapped
    thunk, so the instrumented hot paths pay nothing measurable —
    span histograms and GC deltas are recorded only inside the
    sink-installed branch.

    {b Domain model} (DESIGN.md §9).  All telemetry is recorded into
    one {!store}: metric cells, histogram instances and the span
    stack.  The one exception is a spawned {!Pool} worker: it records
    into a {!private_store}, which also queues the events it emits,
    and the pool {!absorb}s that store into the caller's after the
    join.  So every read ({!value}, {!snapshot},
    {!histogram_snapshot}) and every sink call happens on one domain,
    with no live writer.  Outside a pool, one domain at a time may
    record.  Span ids are allocated from one atomic counter, so they
    are unique across domains, and every {!event} carries the
    recording domain's id.

    Sinks receive a stream of {!event} values, always on the domain
    that owns the global store:

    - {!jsonl_sink} writes one JSON object per line (the
      [slocal.trace/4] schema, documented in DESIGN.md) through one
      buffer;
    - {!collector_sink} hands events to a callback (used by tests).

    {b Request windows}.  A long-lived process ({!Slocal_serve}'s
    [slocal serve] daemon) wraps each unit of work in
    {!with_request}: events serialized inside the window carry the
    request id (the additive [slocal.trace/4] [req] field) and the
    returned {!request_summary} reports the window's own counter
    deltas, wall time and allocation — computed from registry
    snapshots, so global totals and the live OpenMetrics registry
    stay exact. *)

(** {1 Metrics}

    Every metric is a counter: an integer that accumulates, is
    reported as a delta between snapshots and adds across pool
    workers. *)

type metric

val counter : string -> metric
(** [counter name] interns a counter in the global registry.  Calling
    it twice with the same name returns the same metric.  Names are
    dot-namespaced by convention ([solver.nodes]). *)

val incr : metric -> unit
(** Add 1 to the calling domain's store (lock-free). *)

val add : metric -> int -> unit
val set : metric -> int -> unit
(** Overwrite the calling domain's value (a cache clear zeroing its
    own counters). *)

val value : metric -> int
(** The metric's value in the calling domain's store. *)

val snapshot : unit -> (string * int) list
(** All registered metrics with their values, sorted by name. *)

val nonzero_snapshot : unit -> (string * int) list

val delta :
  before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-metric change between two {!snapshot}s; zero entries are
    dropped.  Metrics absent from [before] count from 0. *)

val reset_metrics : unit -> unit
(** Zero the calling domain's metrics and histograms (tests and
    long-running harnesses). *)

(** {1 Histograms}

    Log-bucketed (base 2) integer distributions: bucket [0] holds
    values [<= 0] and bucket [i >= 1] holds the range
    [[2^(i-1), 2^i - 1]], so 63 value buckets cover the positive [int]
    range.  Exact count, sum, min and max ride along, making the mean
    exact and clamping quantile estimates to the observed range. *)

module Histogram : sig
  type t

  val create : unit -> t
  val record : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  val is_empty : t -> bool

  val min_value : t -> int
  (** Smallest recorded value ([0] when empty). *)

  val max_value : t -> int
  val mean : t -> float

  val quantile : t -> float -> int
  (** [quantile h q] estimates the [q]-quantile: the upper bound of
      the bucket containing the rank-[⌈q·count⌉] value, clamped to
      [[min_value, max_value]].  Exact at [q <= 0] (min) and [q >= 1]
      (max); monotone in [q]; [0] when empty. *)

  val merge : t -> t -> t
  (** Pointwise bucket sum (fresh histogram; arguments unchanged).
      Associative and commutative up to {!equal}. *)

  val equal : t -> t -> bool

  val reset : t -> unit
  val copy : t -> t

  val bucket_of_value : int -> int
  val bucket_bounds : int -> int * int
  (** Inclusive [lo, hi] range of a bucket index. *)

  val nonempty_buckets : t -> (int * int) list
  (** [(bucket_index, count)] pairs, ascending, zero entries dropped. *)

  val of_buckets :
    count:int -> sum:int -> min_value:int -> max_value:int ->
    (int * int) list -> t
  (** Rebuild a histogram from its serialized parts (trace parsing).
      @raise Invalid_argument on out-of-range bucket indices. *)
end

val histogram : string -> Histogram.t
(** Intern a histogram in the calling domain's store (same-name calls
    return the same instance).  Span durations are recorded
    automatically into [span.<name>] histograms while a sink is
    installed. *)

val histogram_snapshot : unit -> (string * Histogram.t) list
(** All non-empty histograms, sorted by name.  The returned histograms
    are fresh copies — safe to keep. *)

(** {1 Request windows} *)

type request_summary = {
  rq_id : string;
  rq_wall_ns : int64;  (** Wall time of the window (monotonic). *)
  rq_alloc_b : int;
      (** Bytes allocated on the coordinating domain inside the
          window ([Gc.allocated_bytes] delta). *)
  rq_counters : (string * int) list;
      (** Non-zero counter deltas attributable to the window, sorted
          by name. *)
}

val with_request : id:string -> (unit -> 'a) -> 'a * request_summary
(** [with_request ~id f] runs [f ()] inside a request window: the
    global registry snapshot is taken at open and close and their
    {!delta} becomes the summary's counter list; every event
    serialized while the window is open — including the worker events
    a pool run inside it absorbs at its join — carries [id] in the additive
    [slocal.trace/4] [req] field; the body runs under a [request]
    span and bumps the [request.count] counter {e inside} the window.
    Windows are process-global and must not overlap (the serve daemon
    handles one request at a time, and a pool run opened inside a
    window joins before it closes) — that non-overlap is what makes per-request counter
    deltas disjoint and their sum equal to the global delta.  The id
    is cleared on exceptions too; the exception still propagates. *)

val current_request : unit -> string option
(** The id of the currently open request window, if any. *)

(** {1 Clock} *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds from an arbitrary origin
    ([CLOCK_MONOTONIC] via bechamel's stub). *)

(** {1 Events and sinks} *)

type event =
  | Trace_start of { t_ns : int64; domain : int }
      (** Emitted automatically when a non-null sink is installed; the
          JSONL rendering carries the schema version. *)
  | Span_open of {
      id : int;
      parent : int option;
      name : string;
      t_ns : int64;
      domain : int;
    }
  | Span_close of {
      id : int;
      name : string;
      t_ns : int64;
      dur_ns : int64;
      alloc_b : int;
          (** Bytes allocated (minor + major) while the span was open,
              from [Gc.allocated_bytes] deltas. *)
      minor_n : int;
          (** Minor collections finished while the span was open
              ([Gc.quick_stat] deltas); additive [slocal.trace/3]
              field. *)
      major_n : int;
          (** Major collections finished while the span was open;
              additive [slocal.trace/3] field. *)
      domain : int;
    }
  | Counters of { t_ns : int64; domain : int; values : (string * int) list }
  | Histograms of {
      t_ns : int64;
      domain : int;
      values : (string * Histogram.t) list;
    }  (** Merged snapshot copies of the non-empty histograms. *)
  | Provenance of {
      t_ns : int64;
      domain : int;
      step : int;
      label : string;
      values : (string * int) list;
    }
      (** A derivation-log record: one per RE iteration of a
          lower-bound sequence (see {!Slocal_formalism.Sequence}). *)
  | Message of { t_ns : int64; domain : int; text : string }

val event_domain : event -> int
(** The [domain] field, whatever the event kind. *)

type sink

val null_sink : sink

val jsonl_sink : out_channel -> sink
(** One JSON object per line, rendered into one buffer that is written
    out when it passes a size threshold, when a span closes with no
    enclosing span on the global store, and on {!flush_sink} — so a
    trace file always ends on a line boundary.  The caller owns (and
    closes) the channel.  As a safety net, a module-level [at_exit] hook flushes
    whatever sink is still installed when the process exits (budget
    aborts, uncaught exceptions). *)

val collector_sink : (event -> unit) -> sink
(** Hand events to a callback.  It runs on the domain that owns the
    global store, so a test collector can append to a plain list. *)

val set_sink : sink -> unit
(** Flush and replace the current sink and, when the new sink is
    non-null, emit {!Trace_start} to it.  Install sinks outside of any
    open span and with no live worker domains.

    Installing a non-null sink also starts the {e major-cycle
    monitor}: a [Gc.create_alarm] hook on the installing domain that
    bumps the [gc.majors] counter at the end of every major GC cycle
    and records the latency since the previous cycle's end into the
    [gc.major_cycle_ns] histogram.  Installing {!null_sink} deletes
    the alarm, so the monitor (like spans) is free when telemetry is
    off. *)

val enabled : unit -> bool
(** [true] iff the current sink is not {!null_sink}. *)

val flush_sink : unit -> unit
(** Flush the current sink's pending buffer.  Idempotent and total: a
    null sink, an already-flushed sink and a sink whose channel has
    been closed are all no-ops (never an exception, never a duplicated
    or truncated trailing record).  The module-level [at_exit] safety
    net is exactly this call. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()].  With a null sink this is just the
    call; otherwise a {!Span_open}/{!Span_close} pair brackets it
    (closed on exceptions too), nested spans recording their parent
    {e on the same domain}, the duration is recorded into the
    [span.<name>] histogram, and the allocation and GC-count deltas
    are attached to the close event.  Span ids are process-unique
    (atomic allocator). *)

val emit_counters : unit -> unit
(** Send a {!Counters} event with the non-zero merged metrics to the
    sink (no-op when disabled). *)

val emit_histograms : unit -> unit
(** Send a {!Histograms} event with merged copies of the non-empty
    histograms (no-op when disabled or when all histograms are
    empty). *)

val provenance : step:int -> label:string -> (string * int) list -> unit
(** Send a {!Provenance} event (no-op when disabled). *)

val message : string -> unit
(** Send a free-form {!Message} event (no-op when disabled). *)

(** {1 Pool workers} *)

type store
(** Metric cells, histograms, span stack and a worker's queued events. *)

val private_store : unit -> store
(** Give the calling domain a fresh, empty store and return it (a
    spawned pool worker's first call). *)

val absorb : store -> unit
(** Fold a joined worker's store into the calling domain's: counters
    add, histograms merge, and the worker's queued events are emitted
    in the order it recorded them. *)

(** {1 Rendering} *)

val trace_schema_version : string
(** ["slocal.trace/4"] — /3 plus an optional [req] request-id field
    on every event serialized inside a {!with_request} window (which
    was /2 plus [minor_n]/[major_n] GC-work deltas on every
    [span_close], which was /1 plus a [domain] field on every event).
    The {!Slocal_obs.Trace} reader still accepts /1, /2 and /3 files:
    absent fields default ([req] to "no request"). *)

val event_to_json : event -> Json.t
(** The JSONL line for an event (see DESIGN.md for the schema). *)

val histogram_to_json : Histogram.t -> Json.t
val histogram_of_json : Json.t -> (Histogram.t, string) result

val pp_duration : Format.formatter -> int64 -> unit
(** Nanoseconds, human-scaled ([421ns], [1.23ms], [2.07s]). *)

val pp_summary : Format.formatter -> unit -> unit
(** A sorted table of the non-zero counters followed by
    a quantile table of the non-empty histograms, or a placeholder
    line when nothing was recorded. *)
