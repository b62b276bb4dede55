(** The [slocal.bench/1] format: the one typed report, its writer, its
    one strict reader, and the regression gates.

    The bench harness ([bench/main.ml]) builds a {!report} and writes
    it with {!to_json}; its [validate], [report] and [history]
    subcommands are {!validate}, {!report} and {!history}, all three
    reading through {!read_file}.  Reports written before the
    allocation fields existed parse with those fields [None]; the
    allocation gate skips them and notes it, never fails on them.

    Two gates exist.  The [re.enum_nodes] gate allows {!gate_ratio}
    (1.10x) because the experiment mix varies; the allocation gate
    allows only {!alloc_gate_ratio} (1.02x) because sequential-kernel
    allocation is deterministic for a fixed seed (pinned down by the
    allocation-determinism proptest), with {!alloc_exempt_ids} carved
    out for the multi-domain experiments whose coordinating-domain
    allocation depends on work-stealing order.  Both are evaluated by
    {!evaluate}: the newest value of a series against the median of up
    to {!history_window} previous ones.  A baseline/current pair is the
    window-of-one case. *)

val schema_version : string
(** The schema tag, [slocal.bench/1]. *)

type experiment = {
  id : string;
  title : string;
  wall_ns : int;
  alloc_b : int option;
      (** Bytes allocated by the experiment; [None] on reports from
          older writers, as are [minor_n] and [major_n]. *)
  minor_n : int option;
  major_n : int option;
  counters : (string * int) list;  (** Kernel-counter deltas. *)
}

type report = {
  mode : string;  (** [tables], [micro] or [all]. *)
  quick : bool;  (** [false] when the document omits it. *)
  experiments : experiment list;
  benchmarks : (string * float) list;  (** Microbenchmark ns per run. *)
}

val to_json : report -> Slocal_obs.Json.t

val of_json : Slocal_obs.Json.t -> (report, string) result
(** Strict: every required field present and well-typed, or the first
    violation in document order as the diagnostic. *)

val read_file : string -> (report, string) result
(** {!of_json} over a file; an unreadable file or invalid JSON is an
    [Error] too. *)

(** {1 Gates} *)

val gate_ratio : float
(** [1.10] — the [re.enum_nodes] gate. *)

val alloc_gate_ratio : float
(** [1.02] — the allocation gate. *)

val alloc_exempt_ids : string list
(** Experiments never gated on allocation (parallel harnesses). *)

val history_window : int
(** [5] previous values feed the median. *)

val ratio_of : int -> int -> float
(** [ratio_of cur base], with [base] clamped to at least 1. *)

val breaches : ratio:float -> base:int -> cur:int -> bool

type trend =
  | No_data  (** No report of the series carries the metric. *)
  | One_point  (** One datapoint: nothing to gate. *)
  | Gated of { latest : int; median : int; breach : bool }
      (** [breach] is never set for an exempt experiment. *)

type row = {
  id : string;
  entries : experiment option list;  (** One per report, in order. *)
  nodes : trend;  (** [re.enum_nodes] at {!gate_ratio}. *)
  alloc : trend;  (** [alloc_b] at {!alloc_gate_ratio}. *)
  exempt : bool;  (** In {!alloc_exempt_ids}. *)
}

val evaluate : report list -> row list
(** One verdict row per experiment id of a series given oldest first,
    ids in first-seen order.  An experiment a report lacks, or a
    metric it lacks, drops out of that metric's series. *)

(** {1 Subcommands} — print to stdout (diagnostics to stderr) and
    return the exit code: 0 valid / within the gates, 1 otherwise. *)

val validate : string -> int

val report : string -> string -> int
(** [report BASELINE CURRENT]: the markdown regression report.  Fails
    when no shared experiment reports [re.enum_nodes]. *)

val history : string list -> int
(** Per-experiment trend tables over reports given oldest first. *)
