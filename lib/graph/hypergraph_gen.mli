(** Hypergraph generators for the non-bipartite track.

    Corollary 3.5 needs Δ-regular r-uniform {e linear} hypergraphs of
    high girth (girth of a hypergraph = half the girth of its incidence
    graph).  We generate them through random (Δ, r)-biregular incidence
    graphs: linearity of the hypergraph is exactly 4-cycle-freeness
    (girth ≥ 6) of the incidence graph, which the girth-improvement
    swaps deliver. *)

val complete_3_uniform : int -> Hypergraph.t
(** All [C(n,3)] triples — the dense test case. *)

val tight_cycle : int -> int -> Hypergraph.t
(** [tight_cycle n r]: hyperedges [{i, i+1, …, i+r-1}] mod n.  Every
    vertex has degree r. *)

val random_regular_uniform :
  Slocal_util.Prng.t ->
  n:int ->
  degree:int ->
  rank:int ->
  ?require_linear:bool ->
  unit ->
  Hypergraph.t
(** A random [degree]-regular [rank]-uniform hypergraph on ~[n]
    vertices (n is rounded up so that [n·degree] is divisible by
    [rank]).  With [require_linear] (default true), incidence-graph
    swaps remove 4-cycles so the result is linear; generation fails
    with [Failure] if that cannot be achieved. *)

val incidence_swap_girth :
  Slocal_util.Prng.t -> Hypergraph.t -> min_girth:int -> max_steps:int -> Hypergraph.t
(** Raise the hypergraph girth (half incidence girth) by side-preserving
    double-edge swaps on the incidence graph, with the engine of
    {!Graph_gen.improve_girth}: only hyperedge endpoints are exchanged,
    so degrees and ranks are kept. *)
