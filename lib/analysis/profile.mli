(** Trace analysis: parse an [slocal.trace/4] (or legacy [/3], [/2],
    [/1]) JSONL trace back into a span tree and compute a profile — per-span
    self vs. cumulative time {e and} self vs. cumulative allocation
    (with per-span GC-work deltas), per-request filtering (the [/4]
    [req] stamps written inside
    {!Slocal_obs.Telemetry.with_request} windows — pass [?request] to
    {!of_file} to profile one daemon request), counter-delta
    attribution,
    time- and bytes-weighted critical paths, top-k hotspot tables, the
    per-step provenance ("derivation log") table, folded stacks
    (time- and bytes-weighted) for [flamegraph.pl]/speedscope, and the
    multi-domain parallelism timeline (per-domain lanes with
    allocation rates, concurrent-busy-domains histogram, utilization,
    serial fraction).

    This is the read side of the observability stack: the CLI exposes
    it as [slocal trace report FILE], which prints the one human
    report ({!pp}) or writes the [--folded] / [--folded-alloc]
    exports.

    Damaged input degrades gracefully: unparsable lines are skipped
    and counted ({!Slocal_obs.Trace}), and spans whose close event is
    missing (a process killed mid-run) are closed synthetically at the
    trace's last timestamp and flagged.  Legacy [/1] traces parse with
    every event on domain [0], so all the per-domain machinery
    degrades to a single lane. *)

type span = {
  id : int;
  name : string;
  domain : int;  (** Runtime domain id that recorded the span. *)
  t0 : int64;
  mutable t1 : int64;
  mutable alloc_b : int;  (** Cumulative bytes allocated in the span. *)
  mutable minor_n : int;
      (** Minor collections during the span ([/3]; [0] on older
          traces). *)
  mutable major_n : int;
      (** Major collections during the span ([/3]; [0] on older
          traces). *)
  mutable closed : bool;  (** [false]: close synthesized at EOF. *)
  mutable children : span list;
}

type provenance_step = {
  step : int;
  label : string;
  t_ns : int64;
  values : (string * int) list;
}

type t = {
  roots : span list;
  span_count : int;
  unclosed : int;
  event_count : int;
  skipped_lines : int;
  schema : string option;
  requests : (string * int) list;
      (** Per-request event tally of the whole trace file — the
          [slocal.trace/4] [req] stamps in first-seen order, even when
          the profile itself was filtered with [?request].  [[]] for
          older traces and for {!of_events} input. *)
  domains : int list;
      (** Distinct domain ids that recorded span events, ascending.
          [[0]] (or [[]]) for a sequential or legacy trace. *)
  t_min : int64;
  t_max : int64;
  messages : (int64 * string) list;
  final_counters : (string * int) list;
  attribution : (string * (string * int) list) list;
      (** Counter deltas between consecutive [counters] snapshots,
          charged to the span that was innermost-open {e on the
          snapshot's own domain} at the later snapshot
          (["(toplevel)"] outside all spans) and summed per span
          name.  Only legacy traces carry gauge values (last-value
          metrics such as [gc.*]); they subtract like counters here.
          The unmodified final snapshot is in [final_counters]. *)
  provenance : provenance_step list;  (** In trace order. *)
  histograms : (string * Slocal_obs.Telemetry.Histogram.t) list;
}

val of_events : ?skipped:int -> Slocal_obs.Telemetry.event list -> t
(** Span nesting is tracked with one open stack per domain, so
    interleaved events from concurrent workers reconstruct each
    domain's own span tree. *)

val of_read_result : Slocal_obs.Trace.read_result -> t

val of_file : ?request:string -> string -> t
(** With [?request], only the events stamped with that request id are
    profiled (the CLI's [trace report --request ID]); the [requests]
    field still tallies the whole file.
    @raise Sys_error when the file cannot be opened. *)

(** {1 Per-span measures} *)

val dur_ns : span -> int
(** Cumulative (inclusive) time. *)

val self_ns : span -> int
(** [dur_ns] minus the children's cumulative time, clamped at [0].  On
    well-formed traces the self times over a tree sum exactly to the
    root's cumulative time. *)

val self_alloc_b : span -> int
(** [alloc_b] minus the children's cumulative bytes, clamped at [0] —
    the exact allocation mirror of {!self_ns}.  On well-formed traces
    the self allocations over a tree sum exactly to the root's
    cumulative bytes. *)

val total_wall_ns : t -> int
(** Sum of the root spans' cumulative times.  On a multi-domain trace
    concurrent roots overlap, so this is domain-time, not elapsed
    time; see {!timeline} for the elapsed window. *)

val total_self_ns : t -> int
(** Sum of every span's self time; equals {!total_wall_ns} on
    well-formed traces. *)

val total_alloc_b : t -> int
(** Sum of the root spans' cumulative bytes. *)

val total_self_alloc_b : t -> int
(** Sum of every span's self allocation; equals {!total_alloc_b} on
    well-formed traces (the Σself-alloc = root-cumulative
    invariant). *)

(** {1 Aggregates} *)

type total = {
  agg_name : string;
  calls : int;
  cum_ns : int;
  self_total_ns : int;
  alloc_total_b : int;  (** Cumulative bytes (recursion double-counts). *)
  self_alloc_total_b : int;  (** Self bytes; always disjoint. *)
  minor_total_n : int;
  major_total_n : int;
  max_ns : int;
}

val totals : ?domain:int -> t -> total list
(** Per-span-name aggregates, descending by total self time,
    optionally restricted to one domain's spans.  Note [cum_ns]
    double-counts recursive occurrences of a name; self times are
    always disjoint. *)

val critical_path : ?domain:int -> t -> span list
(** Root-to-leaf chain following the heaviest child at each level,
    starting from the heaviest root (of the given domain, when
    [domain] is passed); [[]] for an empty trace. *)

val critical_path_alloc : ?domain:int -> t -> span list
(** Same descent weighted by cumulative bytes instead of time: the
    chain a byte most likely came from. *)

(** {1 Parallelism timeline} *)

type lane = {
  lane_domain : int;
  lane_spans : int;  (** Spans recorded by this domain. *)
  lane_busy_ns : int;
      (** Time this domain had at least one root span open (union of
          its root-span intervals). *)
  lane_alloc_b : int;
      (** Cumulative bytes of this domain's root spans — divide by
          [lane_busy_ns] for the lane's allocation rate. *)
}

type timeline = {
  tl_wall_ns : int;
      (** Elapsed trace window ([t_max - t_min]), the denominator for
          utilization. *)
  tl_lanes : lane list;  (** One per domain with spans, ascending. *)
  tl_busy_hist : (int * int) list;
      (** [(k, ns)]: time during which exactly [k] domains were busy,
          for every level [0..max]. *)
  tl_max_concurrency : int;
  tl_utilization : float;
      (** Busy domain-time over [wall × lanes], in [0, 1]. *)
  tl_serial_fraction : float;
      (** Fraction of the window with at most one busy domain — an
          Amdahl-style serial-part estimate. *)
}

val timeline : t -> timeline

(** {1 Folded stacks} *)

val folded : t -> (string * int) list
(** [("root;child;leaf", self_ns)] pairs, sorted by path — the
    collapsed-stack format consumed by [flamegraph.pl] and
    speedscope.  Zero-self spans are omitted. *)

val folded_alloc : t -> (string * int) list
(** Same collapsed-stack format weighted by {!self_alloc_b} bytes —
    feed it to [flamegraph.pl] for an allocation flamegraph.
    Zero-self-alloc spans are omitted. *)

val folded_to_string : (string * int) list -> string
(** One ["path value\n"] line per stack. *)

val parse_folded : string -> (string * int) list
(** Inverse of {!folded_to_string} (blank and malformed lines are
    skipped); output sorted by path. *)

(** {1 Rendering} *)

val pp : ?top:int -> Format.formatter -> t -> unit
(** The [trace report] output, each section once: the summary (with
    the allocation total and the Σself-alloc = root-cumulative check
    line), the time hotspot table and the allocation hotspot table (top
    [top] rows each, default 10; the latter by self bytes with per-name
    GC-work counts), the time and allocation critical paths, the
    parallelism timeline (per-domain lanes with busy time, bytes and
    allocation rate, the concurrent-busy-domains histogram, utilization
    and serial fraction, each lane's critical path — one lane on a
    sequential trace), then counter attribution, the provenance table,
    histograms and final counters. *)
