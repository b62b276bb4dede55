(** The [slocal serve] daemon core: a long-lived request loop over a
    Unix-domain socket, speaking a JSONL protocol (DESIGN.md §10), with
    request-scoped observability.

    One process owns the warm state — the cross-invocation RE cache
    ({!Slocal_formalism.Re_step}), the telemetry registry, the interned
    constraint memo tables — and serves {e work} requests ([re],
    [sequence], [solve], [audit]) one at a time, each inside a
    {!Slocal_obs.Telemetry.with_request} window: trace events carry the
    request id, the response reports the window's own counter deltas,
    wall time and allocation, and — with [record] set — one
    [slocal.request/1] record ({!Slocal_obs.Ledger.request_record},
    request body included) is appended per request.  The operations
    themselves are {!Ops}, shared with the one-shot CLI.
    {e Control} requests ([stats], [metrics], [shutdown]) run outside
    any window, so [stats] reads the registry at a quiescent point and
    can verify the sum invariant: the per-request counter deltas of the
    work requests served so far sum exactly to the registry's delta
    since daemon start, up to the daemon's own out-of-window counters
    ([serve.connections], [serve.heartbeats], [serve.control]).

    {b Protocol.}  One JSON object per line in both directions; the
    request fields and the result of each op are specified in
    DESIGN.md §10.

    The daemon is single-threaded by design: parallelism happens
    {e inside} a request (the [jobs] field fans kernel work out over
    the shared {!Slocal_obs.Pool}), which is what keeps request
    windows non-overlapping and their counter deltas disjoint. *)

open Slocal_formalism
module Json = Slocal_obs.Json

(** {1 Spec parsing} *)

val parse_problem_spec : string -> Problem.t
(** {!Ops.parse_problem}. *)

val parse_graph_spec : string -> Slocal_graph.Bipartite.t
(** {!Ops.parse_graph}. *)

(** {1 Daemon state} *)

type config = {
  jobs : int;  (** Default worker width for requests without [jobs]. *)
  record : string option;
      (** Append one [slocal.request/1] record per work request, with
          its [body], to this file (for [slocal client --replay]). *)
  heartbeat : out_channel option;
      (** Emit throttled [\[serve\]] heartbeat lines (uptime, served,
          cache hit rate) here; [None] (default) disables them. *)
  heartbeat_interval_ns : int64;
}

val default_config : config
(** [jobs = 1], no record file, no heartbeat, 500ms heartbeat
    interval. *)

type state
(** One daemon's mutable state: served/error tallies and the summed
    per-request counter deltas.  Confined to the serving domain. *)

val create : ?config:config -> unit -> state
(** Also snapshots the telemetry registry as the baseline that the
    [stats] op diffs against. *)

val served : state -> int
val errored : state -> int
val stopped : state -> bool
(** [true] once a [shutdown] request was handled. *)

val request_totals : state -> (string * int) list
(** Summed per-request counter deltas over every work request served
    so far, sorted by name. *)

(** {1 Request handling} *)

val handle_request : state -> Json.t -> Json.t
(** Handle one parsed request and return the response object.  Never
    raises: op failures become [ok:false] responses carrying
    {!Ops.error_message} (and, for work ops, an [outcome:"error"]
    request record). *)

val handle_line : state -> string -> string
(** {!handle_request} over one protocol line: parse, handle, serialize.
    Invalid JSON yields an [ok:false] error line. *)

(** {1 The socket loop} *)

val serve : socket:string -> state -> unit
(** Bind a Unix-domain socket at [socket] (replacing a stale file),
    accept connections one at a time, and answer one JSONL request per
    line until a [shutdown] request arrives.  [SIGPIPE] is ignored so
    a client hanging up mid-reply never kills the daemon; the socket
    file is removed on the way out. *)

(** {1 Client helpers} *)

type conn
(** One client connection. *)

val connect : ?wait_s:float -> socket:string -> unit -> conn
(** Connect to a serving daemon, retrying for up to [wait_s] seconds
    (default [0.]: a single attempt) while the socket does not exist
    yet or refuses — the daemon may still be binding.
    @raise Unix.Unix_error when the deadline passes. *)

val roundtrip : conn -> Json.t -> (Json.t, string) result
(** Send one request line, read one response line. *)

val disconnect : conn -> unit
