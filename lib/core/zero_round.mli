(** Theorem 3.2, executable in both directions.

    Forward: a bipartite solution of [lift_{Δ,r}(Π)] on the support
    graph gives a 0-round white algorithm for [Π] in Supported LOCAL —
    {!algorithm_of_lift_solution} builds it and it can be run with
    {!Slocal_model.Supported}.

    Backward: from any correct 0-round table (as searched exhaustively
    by {!Slocal_model.Zero_round_search}), a lift solution can be
    reconstructed by collecting, for each edge, the set of outputs the
    algorithm ever emits on it and right-closing — {!lift_solution_of_table}.

    Decision: {!solvable} decides 0-round solvability of [Π] on a
    (Δ,r)-biregular support graph by solving the lift — the tractable
    route that the paper's framework makes available. *)

open Slocal_graph
open Slocal_formalism
open Slocal_model

val solvable :
  ?max_nodes:int -> Bipartite.t -> Problem.t -> bool option
(** [solvable support Π]: can [Π] be bipartitely solved in 0 rounds by
    a white algorithm in Supported LOCAL on [support]?  The support
    must be (Δ,r)-biregular for some [Δ >= d_white Π],
    [r >= d_black Π]; decided via [lift_{Δ,r}(Π)] and the exact
    solver.  [None] on solver budget exhaustion.
    @raise Invalid_argument if the support is not biregular or is too
    small for the problem's arities. *)

val lift_of_support : Bipartite.t -> Problem.t -> Lift.t
(** The lift instance matching a biregular support graph. *)

val solvable_non_bipartite :
  ?max_nodes:int -> Hypergraph.t -> Problem.t -> bool option
(** Corollary 3.3: 0-round solvability of [Π] on a Δ-regular r-uniform
    support hypergraph, decided through [lift_{Δ,r}(Π)] on the
    incidence graph.
    @raise Invalid_argument if the hypergraph is not regular/uniform or
    its parameters are below the problem's arities. *)

val lift_of_hypergraph : Hypergraph.t -> Problem.t -> Lift.t

(** {1 Batch decision}

    Independent per-instance decisions fanned out over an
    {!Slocal_obs.Pool} of OCaml domains — the one parallel kernel of
    the library, behind [slocal sweep --jobs] and the E-SCALE bench
    rows (DESIGN.md §9).  Each [Problem.t] is owned by exactly one
    task and the support graph is immutable, so the tasks share no
    mutable state; results come back in input order, byte-identical
    to the sequential [jobs = 1] default. *)

val two_label_problems : unit -> Problem.t list
(** The 49-problem two-label sweep space over the alphabet [{A, B}]
    at arity 2: every pair of nonempty subsets of the three
    edge-configuration multisets ([AA], [AB], [BB]) as
    (white, black) constraints.  Fresh problems on every call (so
    each caller owns its instances). *)

val decide_batch :
  ?jobs:int ->
  ?max_nodes:int ->
  ?max_assignments:int ->
  Bipartite.t ->
  Problem.t list ->
  (bool option * bool option) list
(** Both routes per problem in one task — the lift decision
    ({!solvable}, so each task builds and solves its own lift) paired
    with the exhaustive 0-round search
    ({!Slocal_model.Zero_round_search.exists_algorithm}, with
    [d_in_white]/[d_in_black] taken from each problem's arities) —
    fanned out over [jobs] domains (default 1 = sequential; a
    [jobs <= 1] run spawns nothing).  This is the full E-LIFT agreement
    workload; for every width the result list is identical to
    [jobs = 1].  Tasks do not call into the pool themselves. *)

val algorithm_of_lift_solution :
  Lift.t -> Bipartite.t -> int array -> Supported.white_algorithm
(** The forward construction of Theorem 3.2: from a valid lift
    labeling of the support, a 0-round white algorithm for the base
    problem (correct on inputs of white degree ≤ Δ′, black degree
    ≤ r′). *)

val lift_solution_of_table :
  Lift.t -> Bipartite.t -> d_in_white:int -> Zero_round_search.table -> int array option
(** The backward construction: collect per-edge output sets of a
    0-round table over all full-size patterns, right-close them, and
    translate to lift labels.  [None] if some collected set is not a
    lift label (which cannot happen for a correct table on a biregular
    support). *)
