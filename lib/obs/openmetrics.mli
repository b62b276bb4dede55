(** Prometheus text exposition of the live {!Telemetry} registry.

    A dotted registry name maps to [slocal_] + the name with
    non-identifier characters replaced by [_] ([re.cache_hits] →
    [slocal_re_cache_hits]); counters carry the [_total] suffix,
    histograms render cumulative [_bucket{le="..."}] series (inclusive
    log-2 bucket upper bounds, then [le="+Inf"]) with [_sum] and
    [_count].  The document ends with [# EOF].  See DESIGN.md §6 for
    the full mapping table. *)

val metric_name : string -> string
(** The exposition name for a registry name (without any suffix). *)

val render : unit -> string
(** Serialize every registered counter (including zero values) and
    every non-empty histogram. *)

val write_file : string -> unit
(** [write_file path] atomically publishes {!render} output at [path]
    (temp file + rename in the target directory, so a Prometheus
    textfile collector never reads a torn snapshot).
    @raise Sys_error when the target is not writable. *)
