(** Girth computation.

    The round elimination round-counting (Theorem B.2) charges
    [min {2k, (g-4)/2}] rounds on support graphs of girth [g], so every
    experiment needs the exact girth of its support graph.  The
    algorithm is the standard BFS-per-vertex method, O(n·m). *)

val girth : Graph.t -> int option
(** Length of a shortest cycle, or [None] for forests. *)

val girth_at_least : Graph.t -> int -> bool
(** [girth_at_least g k] holds iff [g] has no cycle shorter than [k].
    Short-circuits as soon as a shorter cycle is found. *)

val shortest_cycle : Graph.t -> int list option
(** The vertices of some shortest cycle, in order, if any. *)
