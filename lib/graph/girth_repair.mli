(** The in-place girth repair shared by {!Graph_gen.improve_girth} and
    {!Hypergraph_gen.incidence_swap_girth}. *)

val repair :
  ?white:(int -> bool) ->
  Slocal_util.Prng.t ->
  Graph.t ->
  target:int ->
  max_steps:int ->
  Graph.t
(** Destroy cycles shorter than [target] by degree-preserving 2-swaps
    that keep the graph simple and never create a cycle shorter than
    the current goal, so the girth never decreases and ends at least
    [min target (girth g)] when the repair completes.  [max_steps]
    bounds the swaps tried.  With [white], only the endpoints that are
    not white are exchanged, which keeps a proper 2-coloring proper. *)
