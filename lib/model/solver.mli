(** Exact existence solver for bipartite solutions.

    The Supported LOCAL framework (Theorem 3.2) reduces 0-round
    solvability to a purely existential question: does a given problem
    admit a bipartite solution on a given 2-colored graph?  This module
    answers that question exactly on concrete graphs, by backtracking
    over edge labels with forward checking: at every node the partial
    multiset of incident labels must remain extendable to a
    configuration of the node's constraint (for nodes of exactly
    constrained degree).

    Each call compiles the search before it starts.  The white and the
    black constraint become lazily filled automata over partial
    multisets, so a node's partial multiset is an [int] state, its
    node test (forward checking's extendability, or membership of a
    complete multiset without it) runs once per (state, label) pair
    instead of once per search node, and a search node allocates
    nothing.  The automata live for one call only.  The edge order
    (BFS), the label order, the labelling returned, the budget and
    every [solver.*] counter are those of the uncompiled search: a
    label that fails at the edge's first endpoint counts one prune
    without testing the second.

    Used to certify the unsolvability side of the lower bounds on small
    instances, and the solvability side on trees / low-girth graphs. *)

open Slocal_graph
open Slocal_formalism

type outcome =
  | Solution of int array  (** A valid edge labeling. *)
  | No_solution
  | Budget_exceeded

type stats = {
  nodes : int;  (** Search-tree nodes explored. *)
  backtracks : int;  (** Assignments undone. *)
  fc_prunes : int;  (** Forward-checking extendability failures. *)
  max_nodes : int;  (** The budget this search ran under. *)
  budget_exhausted : bool;
      (** [true] iff the budget — not the search space — ended the
          run, i.e. the outcome is {!Budget_exceeded}. *)
}
(** Effort spent by one search.  The same totals also accumulate into
    the [solver.*] telemetry counters ({!Slocal_obs.Telemetry}). *)

val solve : ?max_nodes:int -> ?forward_checking:bool -> Bipartite.t -> Problem.t -> outcome
(** Search for a bipartite solution.  [max_nodes] bounds the number of
    search-tree nodes (default 20_000_000).  [forward_checking]
    (default [true]) enables the partial-multiset pruning; disabling it
    is exposed for the ablation benchmark. *)

val solve_stats :
  ?max_nodes:int ->
  ?forward_checking:bool ->
  Bipartite.t ->
  Problem.t ->
  outcome * stats
(** {!solve}, also reporting the effort spent, so callers can surface
    how hard the search worked and whether the node budget was the
    limiting factor. *)

val solvable : ?max_nodes:int -> Bipartite.t -> Problem.t -> bool option
(** [Some true]/[Some false] when decided, [None] on budget. *)

val count_solutions : ?max_nodes:int -> ?limit:int -> Bipartite.t -> Problem.t -> int option
(** Number of solutions, stopping early at [limit] (default
    [max_int]); [None] on budget. *)

val solve_non_bipartite :
  ?max_nodes:int -> Hypergraph.t -> Problem.t -> outcome
(** Non-bipartite solving on a hypergraph, via its incidence graph.
    The returned labeling indexes the incidence-graph edges in the
    order produced by {!Slocal_graph.Hypergraph.incidence}. *)
