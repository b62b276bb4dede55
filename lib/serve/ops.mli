(** The framework's work operations — RE steps, lower-bound sequences,
    exact solving, the Theorem 3.4 audit — and the spec parsers that
    feed them, implemented once.  The CLI subcommands, the CLI [stats]
    workload and {!Serve.handle_request} all call these; a front end
    only maps its flags or JSON fields onto a call and renders the
    typed result, so the same request gets the same answer everywhere.

    [?kernel] selects the RE kernel for the call and restores the
    previous one afterwards.  [?jobs] is the worker width; results are
    identical for every width (DESIGN.md §9).  Omitted budgets are the
    library defaults. *)

open Slocal_formalism

val parse_problem : string -> Problem.t
(** [matching:D:X:Y] (Π_D(X,Y), Definition 4.2), [mm:D] (maximal
    matching, Appendix A), [arb:D:C] (Π_D(C), Definition 5.2),
    [ruling:D:C:B] (Π_D(C,B), Definition 6.2), [so:D] (sinkless
    orientation), [col:D:C] (C-coloring) or [file:PATH] (a problem
    document); notes the problem into the open run-ledger context, if
    any.  @raise Invalid_argument on an unknown
    spec. *)

val parse_graph : string -> Slocal_graph.Bipartite.t
(** [cycle:K] (C_2K), [kbb:A:B], [cover-petersen],
    [cover-random:N:D:SEED] or [biregular:NW:NB:DW:DB:SEED].
    @raise Invalid_argument on an unknown spec. *)

val kernels : (string * Re_step.kernel) list
(** [("fast", Fast); ("reference", Reference)]. *)

val kernel_name : Re_step.kernel -> string
val kernel_of_name : string -> Re_step.kernel
(** @raise Invalid_argument on a name not in {!kernels}. *)

val error_message : exn -> string option
(** The message of a failed operation ([Invalid_argument], [Failure],
    [Sys_error]: bad spec, parameter or file); [None] for a bug. *)

type re_result = {
  problems : Problem.t list;  (** [Π, RE(Π), …, RE^steps(Π)]. *)
  fixed_point : bool option;  (** Of the last problem, when asked. *)
}

val re :
  ?jobs:int -> ?kernel:Re_step.kernel -> ?fixed_point:bool -> steps:int ->
  Problem.t -> re_result
(** [fixed_point] (default [true]) runs the fixed-point test, one more
    RE, on the last problem. *)

val last : re_result -> Problem.t

type sequence_result = {
  sequence : Problem.t list;  (** [Π, RE(Π), …, RE^steps(Π)]. *)
  checks : Sequence.step list;  (** One relaxation check per step. *)
  lower_bound : bool option;  (** {!Sequence.verdict} of [checks]. *)
}

val sequence :
  ?jobs:int -> ?kernel:Re_step.kernel -> ?max_nodes:int -> steps:int ->
  Problem.t -> sequence_result

type solve_result = {
  outcome : Slocal_model.Solver.outcome;
  stats : Slocal_model.Solver.stats option;  (** [None] for a portfolio. *)
  start : int option;  (** The winning portfolio start. *)
}

val solve :
  ?jobs:int -> ?starts:int -> ?max_nodes:int -> Slocal_graph.Bipartite.t ->
  Problem.t -> solve_result
(** [starts > 1] races that many search starts over the [jobs] pool;
    otherwise (default [1]) one sequential search with its effort. *)

type audit_result = {
  analysis : Supported_local.Framework.result;
  diagnostics : Slocal_analysis.Diagnostic.t list;
}

val audit :
  ?jobs:int -> ?max_nodes:int -> ?recheck_budget:int -> k:int ->
  Slocal_graph.Bipartite.t -> Problem.t -> audit_result
(** {!Supported_local.Framework.analyze} for a length-[k] sequence
    ending in the problem, then {!Slocal_analysis.Check.audit} of its
    certificate. *)
