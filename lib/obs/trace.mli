(** Read [slocal.trace/4] (and /3, /2, /1) JSONL traces back into
    {!Telemetry.event} values — the inverse of
    {!Telemetry.event_to_json}.

    Reading is {e tolerant}: lines that are not valid JSON, are
    truncated mid-object (a killed process), or carry an unknown
    event shape are skipped and counted rather than failing the whole
    trace, so [slocal trace report] degrades gracefully on damaged
    files.  Unknown {e fields} on known kinds are ignored; additive
    fields default when absent (traces from older writers): the
    [alloc_b] field of [span_close] defaults to [0], the /2 [domain]
    field defaults to [0] on every kind — /1 traces were
    single-domain by construction — the /3 [minor_n]/[major_n]
    GC-work deltas of [span_close] default to [0], and the /4 [req]
    request id defaults to "no request".  A mixed /1 + /2 + /3 + /4
    file (e.g. a concatenation) therefore reads cleanly, older events
    landing on domain 0 with zero GC work and no request tag. *)

val schema_version : string
(** ["slocal.trace/4"]. *)

type read_result = {
  events : Telemetry.event list;  (** In file order. *)
  skipped : int;  (** Non-blank lines that failed to parse. *)
  schema : string option;
      (** The [schema] field of the first [trace_start] line, when
          present. *)
  requests : (string * int) list;
      (** Per-request event tally — [(request id, events carrying
          it)] in first-seen order.  Always the {e whole} file's
          tally, even under [?request] filtering, so a report can
          list the other requests present. *)
}

val event_of_json : Json.t -> (Telemetry.event, string) result

val read_channel : ?request:string -> in_channel -> read_result
(** Consume the channel to EOF.  Blank lines are ignored silently.
    With [?request], only events stamped with that exact request id
    are kept (events without a [req] field are dropped too — they
    belong to no request); dropped events are not counted in
    [skipped], and [schema]/[requests] still describe the whole
    file. *)

val read_file : ?request:string -> string -> read_result
(** @raise Sys_error when the file cannot be opened. *)
