(** The Theorem 3.4 pipeline on concrete instances.

    Given a problem [Π], the length [k] of a lower-bound sequence
    ending in a problem [Π_k] (supplied by the caller from Section 4/5/6
    knowledge), and a concrete support graph, the pipeline
    (i) builds [lift(Π_k)] for the support's degrees, (ii) decides its
    solvability with the exact solver, and (iii) if unsolvable, turns
    the support's girth into a round lower bound via Theorem B.2.

    This is the executable skeleton of every lower bound in the paper;
    the per-problem modules supply the sequences and, where search is
    infeasible, the counting certificates. *)

open Slocal_graph
open Slocal_formalism

type certificate =
  | Unsolvable_by_search  (** The exact solver proved no lift solution exists. *)
  | Solvable of int array  (** A lift solution — no lower bound from this graph. *)
  | Undecided  (** Solver budget exhausted. *)

type result = {
  support_nodes : int;
  girth : int option;
  lift : Lift.t;
  certificate : certificate;
  det_rounds : int option;
      (** [min {2k, (g-4)/2}] when the certificate is unsolvability. *)
}

val analyze :
  ?max_nodes:int ->
  Bipartite.t ->
  last_problem:Problem.t ->
  k:int ->
  result
(** [last_problem] is [Π_k] (or a relaxation of it); [k] the sequence
    length.  The support must be biregular.
    @raise Invalid_argument if the support is not biregular. *)

val analyze_hypergraph :
  ?max_nodes:int ->
  Hypergraph.t ->
  last_problem:Problem.t ->
  k:int ->
  result
(** The Corollary 3.5 / B.3 pipeline on a regular uniform support
    hypergraph: solves the lift on the incidence graph and charges
    [min {k, (g-4)/2}] rounds with [g] the hypergraph girth (half the
    incidence girth). *)

val pp_result : Format.formatter -> result -> unit
