(** Strength relations, diagrams and right-closed label sets.

    For a constraint [C], a label [X] is {e at least as strong as} [Y]
    (w.r.t. [C]) if, for every configuration of [C] containing [Y],
    replacing an arbitrary positive number of copies of [Y] with [X]
    yields a configuration that is again in [C].  The {e diagram} is
    the digraph with an edge from [Y] to each such [X]; a label set is
    {e right-closed} if it contains every label reachable from each of
    its members.  Right-closed sets are exactly the labels of the
    lifted problem (Definition 3.1), and the key structural fact used
    by both [lift] and round elimination. *)

type t

val of_constraint : alphabet_size:int -> Constr.t -> t
(** Diagram of a constraint over labels [0 .. alphabet_size - 1]. *)

val black : Problem.t -> t
(** Diagram w.r.t. the black constraint — the one used by [lift]. *)

val white : Problem.t -> t

val stronger : t -> int -> int -> bool
(** [stronger d x y]: is [x] at least as strong as [y]?  Reflexive and
    (by construction) transitive. *)

val edges : t -> (int * int) list
(** Pairs [(y, x)] with [x] strictly stronger-or-equal, [x <> y],
    omitting edges implied by transitivity through a third label
    (a Hasse-like reduction for display). *)

val all_edges : t -> (int * int) list
(** The full relation, minus self-loops. *)

val is_right_closed : t -> Slocal_util.Bitset.t -> bool

val right_closure : t -> Slocal_util.Bitset.t -> Slocal_util.Bitset.t
(** Smallest right-closed superset. *)

val right_closed_sets : t -> Slocal_util.Bitset.t list
(** All non-empty right-closed label sets, ascending by cardinality
    then value.  There are at most [2^n - 1] of these, and usually far
    fewer. *)

val pp : Alphabet.t -> Format.formatter -> t -> unit
(** Renders the reduced edge list, one [Y -> X] line per edge. *)
