(** Reference round-elimination kernel.

    The original implementation of the [R]/[R̄] operators, preserved
    as an oracle: bottom-up enumeration of all good set configurations
    with a quadratic pairwise domination filter, and no result cache.
    Constraint queries go through {!Constr} as they did in the seed
    (whose queries already pruned through down-closures); {!Constr}
    itself is differentially tested against the
    {!Constr_reference} scans.  The fast kernel in
    {!Re_step} must agree with it up to label renaming — the
    differential property suite and the golden RE tests exercise
    exactly this contract.

    Counts into the same [re.steps] / [re.enum_nodes] telemetry
    counters as the fast kernel, so before/after kernel comparisons
    read one set of metrics. *)

val r_black : Problem.t -> Problem.t * Slocal_util.Bitset.t array
(** [R]: maximality on the black side; also returns the meaning of each
    new label (set of old labels). *)

val r_white : Problem.t -> Problem.t * Slocal_util.Bitset.t array
(** [R̄]: maximality on the white side. *)

val re : Problem.t -> Problem.t
(** [RE(Π) = R̄(R(Π))], with fresh atomic labels. *)

val maximal_good_configs :
  candidates:Slocal_util.Bitset.t list ->
  arity:int ->
  Constr.t ->
  Slocal_util.Bitset.t list list
(** Bottom-up enumerate-then-filter maximal good configurations (the
    fast kernel's lattice search is differentially tested against
    this). *)

val dominated :
  Slocal_util.Bitset.t list -> Slocal_util.Bitset.t list -> bool
(** [dominated a b]: [a ≠ b] and some alignment has [a_i ⊆ b_φ(i)]
    position-wise. *)
