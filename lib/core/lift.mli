(** The lift operator (Definition 3.1) — the paper's central construction.

    For a problem [Π] with white arity Δ′ and black arity r′, and
    target arities [Δ ≥ Δ′], [r ≥ r′], the problem
    [lift_{Δ,r}(Π)] has:

    - labels: the non-empty subsets of [Σ_Π] that are right-closed
      w.r.t. the black diagram of [Π] ({e label-sets});
    - black constraint (arity r): multisets [{L_1,…,L_r}] such that
      {e every} r′-subset and {e every} per-position choice from it
      lies in the black constraint of [Π];
    - white constraint (arity Δ): multisets such that {e every}
      Δ′-subset admits {e some} choice in the white constraint of [Π].

    Theorem 3.2: [Π] is 0-round solvable by a white algorithm in
    Supported LOCAL on a (Δ,r)-biregular support graph [G] iff
    [lift_{Δ,r}(Π)] has a bipartite solution on [G]. *)

open Slocal_formalism

type t = {
  base : Problem.t;  (** The problem that was lifted. *)
  problem : Problem.t;  (** [lift_{Δ,r}(base)] with fresh atomic labels. *)
  meaning : Slocal_util.Bitset.t array;
      (** [meaning.(l)]: the set of base labels denoted by lift label [l]. *)
  delta : int;
  r : int;
}

val lift : delta:int -> r:int -> Problem.t -> t
(** @raise Invalid_argument if [delta < d_white base] or
    [r < d_black base]. *)

val label_of_set : t -> Slocal_util.Bitset.t -> int option
(** The lift label denoting a given base label-set, if it is one of the
    (right-closed, non-empty) lift labels. *)
