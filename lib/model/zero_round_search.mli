(** Exhaustive search over deterministic 0-round white algorithms.

    In 0 rounds, a white node's output depends only on its identity
    (it knows the whole support graph) and on which of its incident
    edges are input edges.  A 0-round white algorithm is therefore a
    table: for every white node [v] and every non-empty set [S] of
    incident support edges with [|S| <= Δ'], an output tuple labeling
    [S].  The algorithm is correct if on {e every} input graph (every
    spanning subgraph with white degree ≤ Δ' and black degree ≤ r')
    the induced labeling satisfies the constraints on full-degree
    nodes.

    This module decides existence of a correct table by exhaustive
    search.  It is exponential in everything — usable only on tiny
    supports — and exists to cross-validate Theorem 3.2 against the
    lift-based decision procedure.

    The search enumerates every input graph, so it accepts supports of
    at most 20 edges.  An input graph is its edge mask (bit [e] set iff
    support edge [e] is an input edge), and input graphs are visited in
    ascending mask order; together with the fixed order of the
    (node, pattern) variables, this fixes the search order and with it
    the [zrs.*] counters. *)

open Slocal_graph
open Slocal_formalism

type table = (int * int list, int list) Hashtbl.t
(** Maps (white node, sorted edge-id pattern) to the label tuple
    output on the pattern, aligned position-wise. *)

val exists_algorithm :
  ?max_assignments:int ->
  Bipartite.t ->
  Problem.t ->
  d_in_white:int ->
  d_in_black:int ->
  bool option
(** [Some true]/[Some false] when decided within the budget, [None]
    otherwise.  The budget counts the steps of the search's descent:
    one for the empty assignment and one for every consistent tuple it
    extends a partial table with — the [zrs.assignments] counter, not
    complete tables (default 50_000_000).
    @raise Invalid_argument if the arities differ from the problem's or
    the support has more than 20 edges. *)

val find_algorithm :
  ?max_assignments:int ->
  Bipartite.t ->
  Problem.t ->
  d_in_white:int ->
  d_in_black:int ->
  table option option
(** Like {!exists_algorithm} but returns the witnessing table. *)

val algorithm_of_table : table -> Supported.white_algorithm
(** Wrap a table as a 0-round algorithm runnable by {!Supported}. *)

val table_correct :
  Bipartite.t -> Problem.t -> d_in_white:int -> d_in_black:int -> table -> bool
(** Check a table against every valid input instance. *)
