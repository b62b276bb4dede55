(** Domain-safety static analysis over the repository's own OCaml
    sources (SL050–SL056).

    The planned multicore kernel requires byte-identical determinism,
    which is only provable if every piece of shared mutable state and
    every hidden nondeterminism source in [lib/], [bin/] and [bench/]
    is known and classified.  This module is the mechanical inventory:
    a source-level scan (comments and string literals stripped, no
    compiler frontend needed) that detects

    - module-scope mutable bindings — top-level [ref], [Hashtbl.create],
      [Array.make], [Queue.create], [Buffer.create], … and record
      literals with mutable fields (SL050);
    - [lazy] values at module scope, and type declarations bearing
      [mutable] fields or cache containers ([Hashtbl.t], [Queue.t],
      [Buffer.t], [Stack.t], [ref]) (SL051);
    - nondeterminism sources: [Random.self_init] and uses of the
      unseeded global PRNG (SL052), wall-clock reads outside [lib/obs]
      (SL053), hash-order-dependent [Hashtbl.iter]/[fold] with no
      canonical sort in the same top-level item (SL054), [at_exit] and
      signal handlers (SL055);

    and classifies every finding by its checked-in annotation: a
    [(* staticcheck: <class> <reason> *)] comment pragma on (or up to
    three lines above) the finding.  Unannotated findings and
    malformed or stale pragmas (SL056) are
    reported through {!Diagnostic} under the usual 0/1/2 exit
    contract; the full inventory is rendered as a human table and as a
    machine-readable [slocal.staticcheck/1] JSON document. *)

type classification =
  | Immutable_after_init
      (** Written only during module/CLI initialization; parallel
          kernel workers may read it freely. *)
  | Per_call
      (** State owned by one call, request or domain; must be
          per-domain (or per-request) under parallelism. *)
  | Shared_cache_needs_lock
      (** A cross-call cache or registry shared by design; needs a
          lock, an atomic, or a domain-local split. *)
  | Nondeterministic
      (** Inherently order- or environment-dependent; must stay off
          the deterministic kernel paths. *)

val classification_of_string : string -> classification option
(** Parses the four lattice names ([immutable-after-init], [per-call],
    [shared-cache-needs-lock], [nondeterministic]) plus the
    [domain-safe] alias for [immutable-after-init]. *)

val classification_to_string : classification -> string

type kind =
  | Mutable_binding of string
      (** Module-scope mutable value; the payload is the constructor
          that makes it mutable ([ref], [Hashtbl.create], …). *)
  | Toplevel_lazy  (** [lazy] at module scope (forcing is a write). *)
  | Mutable_type of string list
      (** Type declaration with [mutable] fields or cache-container
          fields; the payload is the offending field names. *)
  | Random_source of string
      (** [Random.self_init] or a use of the unseeded global PRNG. *)
  | Wall_clock of string
      (** [Unix.gettimeofday]/[Unix.time]/[Sys.time] outside lib/obs. *)
  | Hash_order_iteration of string
      (** [Hashtbl.iter]/[Hashtbl.fold] in a top-level item with no
          canonical sort. *)
  | Exit_or_signal_handler of string  (** [at_exit] / [Sys.signal]. *)

val code_of_kind : kind -> string
(** SL050 (mutable binding), SL051 (lazy / mutable type), SL052
    (random), SL053 (wall clock), SL054 (hash order), SL055 (exit or
    signal handler). *)

type finding = {
  file : string;  (** Path as given to the scanner. *)
  line : int;  (** 1-based line of the binding / type / occurrence. *)
  name : string;
      (** The binding or type name; for occurrence findings, the name
          of the enclosing top-level item ([_] for pattern bindings). *)
  key : string;
      (** Stable annotation key, [<tag>:<name>] with a [#k] suffix for
          repeats in the same file ([mutable:result_cache],
          [hash-order:folded]). *)
  kind : kind;
  classification : classification option;  (** [None] = unannotated. *)
  reason : string option;
}

val scan_source : file:string -> string -> finding list
(** Detection only: every finding in one source text, unclassified,
    sorted by line.  Comments and string literals are ignored;
    wall-clock reads are exempt when [file] contains [lib/obs]. *)

val analyze : (string * string) list -> finding list * Diagnostic.t list
(** [analyze sources] scans every [(file, text)] pair, attaches the
    pragma annotations, and returns the classified inventory (sorted
    by file, then line) together with the diagnostics: one warning per
    unannotated finding (its [code_of_kind]), one SL056 per malformed
    or stale pragma. *)

val analyze_files : src_dirs:string list -> finding list * Diagnostic.t list
(** {!analyze} over every [.ml] under [src_dirs] (recursively,
    sorted); an unreadable source directory yields an SL000 error. *)

val schema_version : string
(** ["slocal.staticcheck/1"]. *)

val report_json : roots:string list -> finding list -> Slocal_obs.Json.t
(** The machine-readable inventory: schema, scanned roots, one object
    per finding (file, line, code, kind, name, key, class, reason),
    and a summary (totals, per-code and per-class
    counts). *)

val pp_inventory : Format.formatter -> finding list -> unit
(** The human inventory table, followed by a one-line summary. *)
