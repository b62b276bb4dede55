(** Problems in the black-white formalism (Section 2 of the paper).

    A problem is a tuple [(Σ, C_W, C_B)]: a finite alphabet, a white
    constraint whose configurations have size [d_W], and a black
    constraint whose configurations have size [d_B].  On bipartite
    2-colored graphs, a (bipartite) solution labels every edge with an
    element of Σ such that white nodes of degree exactly [d_W] see a
    multiset of incident labels in [C_W], and black nodes of degree
    exactly [d_B] one in [C_B].

    Constraints can be written in the paper's condensed syntax: each
    line is one (condensed) configuration; a position is either a label
    name or a bracket group [\[A B\]] of alternatives, optionally
    followed by [^k] for repetition.  For example, the maximal matching
    problem of Appendix A with Δ = 3 is

    {v
      white:  M O^2 | P^3
      black:  M [O P]^2 | O^3
    v}

    (the [|] separates configurations when given on one line; newlines
    work too). *)

type t = {
  name : string;
  alphabet : Alphabet.t;
  white : Constr.t;
  black : Constr.t;
}

val make : name:string -> alphabet:Alphabet.t -> white:Constr.t -> black:Constr.t -> t
(** @raise Invalid_argument if a constraint uses a label outside the
    alphabet. *)

val d_white : t -> int
val d_black : t -> int

val max_config_arity : int
(** The largest arity (the sum of a line's exponents, an item without
    one counting 1) a condensed configuration line may have: 256.  The
    parser refuses a longer line before expanding it, so a document
    with a huge exponent fails at once instead of building a list of
    that length. *)

val parse : name:string -> labels:string list -> white:string -> black:string -> t
(** Build a problem from the condensed textual syntax described above.
    @raise Invalid_argument on syntax errors, unknown labels, or a
    configuration line of arity above {!max_config_arity} (the
    message names the limit). *)

val parse_configs : Alphabet.t -> string -> Slocal_util.Multiset.t list
(** Parse a constraint in the condensed syntax, expanding condensed
    configurations to the full set. *)

val parse_configs_multi : Alphabet.t -> string -> Slocal_util.Multiset.t list
(** Like {!parse_configs} but keeping multiplicities (sorted, not
    deduplicated): a configuration generated by [k] expansions appears
    [k] times.  Source lints use this to see duplicate generation that
    the canonical set representation hides. *)

val to_string : t -> string
(** Round-trippable textual form (one expanded configuration per line). *)

val of_string : string -> t
(** Parse the document format produced by {!to_string}:

    {v
      problem <name>
      labels: <name> ...
      white:
        <configuration lines, condensed syntax allowed>
      black:
        <configuration lines>
    v}

    Blank lines and lines starting with [#] are ignored.
    @raise Invalid_argument on malformed input. *)

val swap_sides : t -> t
(** Exchange the white and black constraints. *)

val rename : t -> string -> t

val equal : t -> t -> bool
(** Structural equality (same alphabet order, same configuration sets). *)

val equal_up_to_renaming : t -> t -> bool
(** Equality up to a bijective relabeling of the alphabets. *)

val canonical_hash : t -> int
(** A hash invariant under label renaming (and independent of the
    problem name): problems equal up to renaming hash equally.  Derived
    from the arities, constraint sizes and the sorted multiset of label
    signatures.  Buckets the cross-invocation RE cache. *)

val pp : Format.formatter -> t -> unit
