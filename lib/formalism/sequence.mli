(** Lower-bound sequences (Section 2).

    A list [Π_0, …, Π_k] is a lower-bound sequence when each [Π_i] is a
    relaxation of [RE(Π_{i-1})].  Theorem B.2 converts such a sequence,
    plus 0-round unsolvability of [Π_k], into a round lower bound for
    [Π_0].  This module builds and machine-checks sequences.

    Both {!check} and {!iterate_re} go through {!Re_step.re}, which
    caches results across invocations: building a sequence
    with {!iterate_re} and then verifying it with {!check} recomputes
    no RE step (the second pass hits the cache, counted in
    [re.cache_hits]).

    {b Provenance.}  While a telemetry sink is installed,
    {!iterate_re} emits one [provenance] event per problem of the
    sequence (a machine-readable derivation log): step index, the
    renaming-invariant {!Problem.canonical_hash}, label and
    white/black configuration counts, the black diagram's reduced edge
    count, the [re.cache_hits]/[re.cache_misses] deltas of that
    iteration, and its wall time.  [slocal trace report] renders these
    as a per-step table.  Both entry points also open spans
    ([sequence.iterate_re]/[sequence.step],
    [sequence.check]/[sequence.check_step]) and count iterations in
    [sequence.steps]/[sequence.checks]; with the default null sink the
    extra cost is a counter increment per step. *)

type step = {
  index : int;
  verified : bool option;
      (** [Some true]: relaxation verified; [Some false]: refuted;
          [None]: search budget exhausted. *)
}

val check : ?max_nodes:int -> Problem.t list -> step list
(** Verify every consecutive step of a candidate sequence.  An empty or
    singleton list yields no steps. *)

val verdict : step list -> bool option
(** [Some true] iff every step verifies; [Some false] if some step is
    refuted; [None] if undecided within budget. *)

val is_lower_bound_sequence : ?max_nodes:int -> Problem.t list -> bool option
(** [verdict (check problems)]. *)

val iterate_re : Problem.t -> steps:int -> Problem.t list
(** [Π, RE(Π), RE²(Π), …] — always a lower-bound sequence (each problem
    trivially relaxes itself, and is exactly [RE] of its predecessor).
    @raise Invalid_argument on a negative [steps]. *)

val constant : Problem.t -> k:int -> Problem.t list
(** The fixed-point sequence [Π, Π, …, Π] of length [k+1]: a
    lower-bound sequence whenever [Π] relaxes [RE(Π)]. *)
