(** Constraints: finite sets of same-size configurations.

    A configuration is a multiset of labels; a (white or black)
    constraint is a set of configurations, all of the same size (the
    arity: Δ' for white, r' for black).  Besides membership, the
    operations needed by round elimination, the lift operator and the
    solver are quantified-choice tests over "condensed" configurations
    (one label set per position), with pruning through the downward
    closure of the constraint (the set of all sub-multisets of its
    configurations, indexed by size).  Each quantified-choice query
    walks the picks afresh; only the downward closures are cached,
    built lazily per size and published atomically, so a constraint
    may be shared across domains. *)

module Config_set : Set.S with type elt = Slocal_util.Multiset.t

type t

val make : arity:int -> Slocal_util.Multiset.t list -> t
(** @raise Invalid_argument if some configuration has the wrong size. *)

val arity : t -> int
val configs : t -> Slocal_util.Multiset.t list
val size : t -> int
(** Number of configurations. *)

val mem : Slocal_util.Multiset.t -> t -> bool

val extendable : Slocal_util.Multiset.t -> t -> bool
(** [extendable partial t]: is [partial] a sub-multiset of some
    configuration of [t]?  ([partial] may have any size up to the
    arity.)  One lookup in the downward closure of that size. *)

val exists_choice : int list list -> t -> bool
(** [exists_choice sets t]: do per-position picks [ℓ_i ∈ sets_i] exist
    whose multiset is in [t]?  [sets] must have length [arity t].
    Prunes using {!extendable}. *)

val for_all_choices : int list list -> t -> bool
(** All per-position picks form configurations of [t].  [sets] must
    have length [arity t]. *)

val exists_choice_partial : int list list -> t -> bool
(** Like {!exists_choice} but for fewer than [arity] positions: the
    picked multiset only needs to be extendable. *)

val for_all_choices_partial : int list list -> t -> bool
(** All picks over the (possibly fewer than [arity]) positions are
    extendable. *)

val labels_used : t -> int list
(** Distinct labels appearing in some configuration. *)

val map_labels : (int -> int) -> t -> t
(** Re-canonicalizes configurations after relabeling. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
(** Configuration-set inclusion. *)

val pp : Alphabet.t -> Format.formatter -> t -> unit
