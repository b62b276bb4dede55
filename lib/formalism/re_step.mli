(** The round elimination operator (Appendix B of the paper).

    [R(Π)] replaces the black constraint by the set of {e maximal}
    configurations of label-{e sets} all whose choices lie in [C_B],
    and the white constraint by the configurations of such sets
    admitting {e some} choice in [C_W].  [R̄] is the same with the two
    roles exchanged, and the full round elimination step is
    [RE(Π) = R̄(R(Π))].

    Lemma B.1: a [T]-round white algorithm for [Π] (on high-girth
    support graphs, in Supported LOCAL) yields a [(T-1)]-round black
    algorithm for [R(Π)]; symmetrically for [R̄]; hence a [T]-round
    white algorithm for [Π] yields a [(T-2)]-round white algorithm for
    [RE(Π)].

    The labels of [R(Π)] are sets of labels of [Π].  This module
    re-grounds them as fresh atomic labels and returns the {e meaning}
    of each new label — the set of old labels it stands for — so that
    steps can be chained.

    {b Kernels.}  Two implementations coexist.  The {e fast} kernel
    (default) finds the maximal good configurations by a top-down
    subset-lattice search that expands only non-good configurations
    (goodness is downward closed), answers constraint queries through
    {!Constr}'s packed-key memo tables, and caches whole RE results
    across invocations keyed by structural problem equality.  The
    {e reference} kernel is the original bottom-up
    enumerate-then-filter implementation, kept verbatim in
    {!Re_reference} as a differential oracle.  {!set_kernel} switches
    the [r_black]/[r_white]/[re]/[is_fixed_point] entry points between
    the two (the CLI exposes it as [--kernel reference|fast]); both
    kernels produce identical problems. *)

type grounding = {
  problem : Problem.t;
  meaning : Slocal_util.Bitset.t array;
      (** [meaning.(l)] is the set of previous-alphabet labels that the
          new label [l] denotes. *)
}

type kernel = Fast | Reference

val set_kernel : kernel -> unit
(** Select the implementation behind {!r_black}, {!r_white}, {!re} and
    {!is_fixed_point}.  Default: [Fast]. *)

val current_kernel : unit -> kernel

val r_black : ?jobs:int -> Problem.t -> grounding
(** The operator [R]: maximality on the black side, existence on the
    white side.  [jobs > 1] fans the fast kernel's lattice descent
    out over an {!Slocal_obs.Pool} (see {!maximal_good_configs});
    output and counter totals are identical to [jobs = 1].  The
    reference kernel ignores [jobs]. *)

val r_white : ?jobs:int -> Problem.t -> grounding
(** The operator [R̄]: maximality on the white side, existence on the
    black side.  [jobs] as in {!r_black}. *)

val re : ?cache:bool -> ?jobs:int -> Problem.t -> Problem.t
(** [RE(Π) = R̄(R(Π))], with fresh atomic labels.  With the fast
    kernel, results are cached across invocations (hits require
    structural {!Problem.equal}; buckets use
    {!Problem.canonical_hash}; [re.cache_hits]/[re.cache_misses]
    count both outcomes).  Pass [~cache:false] to force a full
    recomputation (benchmarks).  [jobs > 1] parallelizes the two
    lattice descents (fast kernel only) with byte-identical output
    and exact counter totals — DESIGN.md §9.
    @raise Invalid_argument, naming the problem, its label count and
    the limit, when [Π] or [R(Π)] has more than [Bitset.max_universe]
    labels. *)

val is_fixed_point : Problem.t -> bool
(** Is [RE(Π)] equal to [Π] up to label renaming?  (E.g. Lemma 5.4:
    [Π_Δ(k)] is a fixed point whenever [k <= Δ].) *)

val clear_cache : unit -> unit
(** Drop all cached RE results {e and} zero the paired
    [re.cache_hits]/[re.cache_misses] counters, so hit-rate numbers
    measured after an explicit clear are not polluted by pre-clear
    traffic (tests and benchmarks).  The internal capacity eviction
    does {e not} reset the counters. *)

val enumerate_set_configs :
  candidates:Slocal_util.Bitset.t list ->
  arity:int ->
  partial:(Slocal_util.Bitset.t list -> bool) ->
  full:(Slocal_util.Bitset.t list -> bool) ->
  Slocal_util.Bitset.t list list
(** Enumerate multisets of size [arity] over [candidates] (results as
    sorted-by-candidate-order lists), pruning any prefix rejected by
    [partial] and keeping completions accepted by [full].  Shared by
    the weak (existential) side of the [R]/[R̄] operators and the lift
    construction. *)

val set_name : Alphabet.t -> Slocal_util.Bitset.t -> string
(** Printable name of a label set (concatenation for single-character
    member names, ⟨a,b,…⟩ otherwise). *)

val maximal_good_configs :
  ?jobs:int ->
  candidates:Slocal_util.Bitset.t list ->
  arity:int ->
  Constr.t ->
  Slocal_util.Bitset.t list list
(** The maximal multisets (given as sorted lists) of candidate
    label-sets, of size [arity], all whose choices lie in the given
    constraint — computed by the fast top-down lattice search
    regardless of {!set_kernel} (the reference implementation lives in
    {!Re_reference.maximal_good_configs}).  Visited lattice nodes
    count into [re.enum_nodes].  [jobs > 1] (default 1) evaluates the
    per-configuration violating-choice tests wave by wave over an
    {!Slocal_obs.Pool}: the visited closure, the output and the
    [re.enum_nodes]/[constr.memo_*] totals are identical to the
    sequential descent (DESIGN.md §9). *)
