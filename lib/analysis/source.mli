(** Lints over the condensed textual problem syntax.

    These checks need the original source (a [Problem.of_string]
    document), not just the parsed [Problem.t]: once parsed,
    configuration sets are deduplicated and canonicalized, so
    duplicate condensed lines and non-canonical syntax are invisible.

    Codes: SL000 (unparsable document), SL004 (a configuration
    generated by more than one condensed line, or more than once by
    the same line), SL005 (non-canonical
    condensed syntax: singleton or duplicated bracket alternatives,
    [^0] / [^1] exponents). *)

open Slocal_formalism

val lint_string : subject:string -> string -> Problem.t option * Diagnostic.t list
(** Parse a problem document and lint its condensed source.  On parse
    failure the problem is [None] and the diagnostics contain exactly
    one SL000 error carrying the parser's message. *)

val lint_file : string -> Problem.t option * Diagnostic.t list
(** {!lint_string} on a file's contents, with the path as subject.
    Unreadable files also report SL000. *)

(** {1 Telemetry name drift (SL041)}

    Every [Telemetry.counter]/[histogram] name registered with a
    string literal in the library sources must appear in DESIGN.md
    §6's "Metric names" table, and every name in that table
    must be registered by some source. *)

val telemetry_registrations : string -> (string * string) list
(** [(kind, name)] pairs for every [counter "..."] or
    [histogram "..."] application found in OCaml source text (plain
    text scan; qualified and unqualified uses alike), sorted and
    deduplicated. *)

val design_metric_names : string -> string list
(** The full dotted metric names documented in a design document's
    "Metric names" markdown table (rows are
    [| `prefix.` | `name`, `name`, ... |]; non-identifier backticked
    tokens are ignored). *)

val telemetry_name_findings :
  design:string -> (string * string) list -> Diagnostic.t list
(** [telemetry_name_findings ~design sources] checks every
    registration in [sources] ([(subject, text)] pairs) against the
    design table: one SL041 warning per undocumented name, one per
    documented name that no source in [sources] registers, plus one
    SL041 warning if [design] has no table at all. *)

val lint_telemetry_files :
  design:string -> src_dirs:string list -> Diagnostic.t list
(** File-level wrapper: scan every [.ml] under [src_dirs]
    (recursively, sorted) against the table in the [design] file.  An
    unreadable design document is a single SL000 error. *)
