(** Relaxations between problems (Section 2 of the paper).

    A problem [Π'] is a relaxation of [Π] if white configurations of
    [Π] can be mapped (as ordered tuples, position by position) to
    white configurations of [Π'] in such a way that, letting [r(ℓ)] be
    the set of labels that [ℓ] is ever mapped to, every choice over
    [r(ℓ_1) × … × r(ℓ_{d_B})] of every black configuration
    [{ℓ_1, …, ℓ_{d_B}}] of [Π] lies in the black constraint of [Π'].
    Intuitively: white nodes can translate any valid [Π]-solution into
    a valid [Π']-solution without communication.

    Lower-bound sequences (Definition in Section 2) are chains
    [Π_0, …, Π_k] with [Π_i] a relaxation of [RE(Π_{i-1})]. *)

val check_label_map : f:(int -> int) -> Problem.t -> Problem.t -> bool
(** [check_label_map ~f src dst]: does the per-label renaming [f]
    witness that [dst] is a relaxation of [src]?  (Every white
    configuration of [src] must map into the white constraint of [dst],
    and every black configuration into the black constraint.)  This is
    the common special case where each label has a single image. *)

val exists : ?max_nodes:int -> Problem.t -> Problem.t -> bool option
(** [exists src dst]: does some witnessing map [f] (in the general,
    position-wise sense) exist, i.e. is [dst] a relaxation of [src]?
    Decided by backtracking over the image of each white configuration
    of [src], one search node per partial assignment (counted in
    [relaxation.nodes]); [None] if the search budget [max_nodes]
    (default 2_000_000 nodes) is exhausted.
    @raise Invalid_argument when [dst] has more than
    [Bitset.max_universe] labels (the images [r(ℓ)] are label sets
    over [dst]), naming [dst] and its label count.

    Value order: when every label of a white configuration has a
    same-named label in [dst] and the resulting tuple is a candidate
    image, that tuple is tried first; otherwise candidates keep their
    enumeration order.  Problems that share label names (RE iterates,
    constant sequences, fixed-point checks) are then usually decided
    along the first branch.  The order never changes the verdict, and
    a refutation explores every consistent prefix, so its node count
    does not depend on the order either.

    Pruning is incremental: [r] only grows along a branch, so after a
    tuple is applied only the black configurations of [src] that
    contain a label whose [r(ℓ)] grew are rechecked, each once; one
    with an empty [r(ℓ)] holds vacuously.  Growth is undone from a
    trail of the overwritten sets. *)

val witness :
  ?max_nodes:int ->
  Problem.t ->
  Problem.t ->
  (Slocal_util.Multiset.t * int list) list option
(** Like {!exists} but returns, on success, for each white
    configuration of [src] (as a sorted multiset) the ordered image
    tuple chosen for its canonical ordering.  [None] means no witness
    was found within the budget (so: not a relaxation, or budget
    exhausted — use {!exists} to distinguish). *)
