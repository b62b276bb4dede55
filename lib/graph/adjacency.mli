(** Array-backed incidence lists and reusable BFS scratch: the
    representation behind {!Girth} and the in-place girth repair.

    Edge [e] joins [ends.(2e)] and [ends.(2e+1)]; the edges incident
    to [v] are [inc.(off.(v)) .. inc.(off.(v+1) - 1)].  A
    degree-preserving swap rewrites [ends] and [inc] in place, so the
    offsets never move.  Nothing here is shared between calls: each
    caller builds its own [t] and [scratch]. *)

type t = private { n : int; off : int array; inc : int array; ends : int array }

val of_graph : Graph.t -> t
(** Edge ids are the graph's edge indices. *)

val to_graph : t -> Graph.t
val m : t -> int

val other : t -> int -> int -> int
(** [other t e v]: the endpoint of edge [e] that is not [v]. *)

val mem_edge : t -> int -> int -> bool

val exchange : t -> int -> int -> int -> int -> unit
(** [exchange t i b j p]: edge [i] hands its endpoint [b] to edge [j]
    in return for [j]'s endpoint [p], so [{a,b}, {q,p}] become
    [{a,p}, {q,b}].  [exchange t i p j b] undoes it.  The caller keeps
    the graph simple. *)

type scratch
(** BFS distances, parent edges and a queue for [n] vertices.  Each
    search resets only the entries it touched. *)

val scratch : int -> scratch

val search :
  t -> scratch -> int -> stop_below:int -> cap:int -> (int -> int -> 'a) -> 'a
(** [search t sc src ~stop_below ~cap k] runs a BFS from [src].  A
    non-tree edge [vw] closes a walk of length [dist v + dist w + 1]
    through the BFS tree, which contains a cycle at most that long.
    The search keeps the edge with the smallest such bound, stops as
    soon as the bound drops below [stop_below], and stops expanding
    once no later edge can bound below [min best cap] (a vertex at
    depth [d] only closes walks of length [>= 2d + 1]).  [k edge bound]
    is applied while the BFS tree is still in place; [edge = -1] and
    [bound = max_int] when no edge qualified.  Counts one
    [girth.bfs_runs]. *)

val tree_cycle : t -> scratch -> int -> int array -> int
(** Inside [search]'s continuation: write the edges of the cycle that
    the closing edge forms with the BFS tree into the buffer and return
    their number (at most the bound). *)

val tree_path : t -> scratch -> int -> int list
(** Inside [search]'s continuation: the vertices from the given vertex
    up to the BFS root, both included. *)

val reaches : t -> scratch -> int -> int -> hidden:int -> depth:int -> bool
(** [reaches t sc u v ~hidden ~depth]: [v] is within [depth] steps of
    [u] in the graph without edge [hidden].  Counts one
    [girth.bfs_runs]. *)
