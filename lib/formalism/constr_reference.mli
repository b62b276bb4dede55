(** Scanning constraint-query oracle.

    Answers the same queries as {!Constr} by scanning the configuration
    list directly — no packed keys, no cached down-closures, no
    pruning of the choice walks.  The differential property suite
    ([test/test_proptest.ml]) checks {!Constr}'s fast paths against
    these reference semantics on random constraints and random
    queries. *)

val mem : Slocal_util.Multiset.t -> Constr.t -> bool
val extendable : Slocal_util.Multiset.t -> Constr.t -> bool
val exists_choice : int list list -> Constr.t -> bool
val for_all_choices : int list list -> Constr.t -> bool
val exists_choice_partial : int list list -> Constr.t -> bool
val for_all_choices_partial : int list list -> Constr.t -> bool
