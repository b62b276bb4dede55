(** Solution checkers for problems in the black-white formalism.

    A bipartite solution (Section 2 of the paper) assigns a label to
    every edge of a 2-colored graph; a white node of degree exactly
    [d_W] must see a multiset of incident labels in the white
    constraint, a black node of degree exactly [d_B] one in the black
    constraint, and nodes of any other degree are unconstrained.

    [S]-solutions (Definition 5.6) restrict the constraints to a subset
    [S] of nodes; they drive the coloring extraction of Lemmas
    5.7–5.10. *)

open Slocal_graph
open Slocal_formalism

type violation =
  | White_node of int
  | Black_node of int

val check : Bipartite.t -> Problem.t -> int array -> violation list
(** All violated nodes for the given edge labeling ([labeling.(e)] is
    the label of edge [e]).  Empty means valid. *)

val is_solution : Bipartite.t -> Problem.t -> int array -> bool

val check_on :
  Bipartite.t -> Problem.t -> in_s:(int -> bool) -> int array -> violation list
(** [S]-solution check: white constraint only on white nodes of [S],
    black constraint only on black nodes of [S]. *)

val is_solution_on :
  Bipartite.t -> Problem.t -> in_s:(int -> bool) -> int array -> bool

val check_non_bipartite :
  Hypergraph.t -> Problem.t -> (int -> int -> int) -> violation list
(** Non-bipartite solution check on a hypergraph: [labeling v e] is the
    label of the (vertex [v], hyperedge [e]) incidence.  Vertices play
    the white role (degree-[d_W] vertices constrained by [C_W]),
    hyperedges the black role (rank-[d_B] hyperedges by [C_B]). *)

val is_non_bipartite_solution :
  Hypergraph.t -> Problem.t -> (int -> int -> int) -> bool
