(** Graph generators, including the Lemma 2.1 substitute.

    The paper's lower-bound instances (Lemma 2.1, [Alo10]) are
    Δ-regular graphs with girth ≥ ε·log_Δ n and independence number
    ≤ α·n·log Δ/Δ, whose existence is proved probabilistically.  We
    substitute random Δ-regular graphs from the configuration model
    with short cycles destroyed by degree-preserving 2-swaps
    ({!high_girth_low_independence}); callers receive the measured
    girth so that nothing is assumed. *)

val cycle : int -> Graph.t
val path : int -> Graph.t
val complete : int -> Graph.t
val complete_bipartite : int -> int -> Bipartite.t
val star : int -> Graph.t
(** [star k]: center 0 with [k] leaves. *)

val hypercube : int -> Graph.t
(** [hypercube d]: the [d]-dimensional hypercube on [2^d] vertices. *)

val grid : int -> int -> Graph.t
val torus : int -> int -> Graph.t
(** [torus a b] with [a, b >= 3]. *)

val petersen : unit -> Graph.t
(** The Petersen graph: 3-regular, girth 5, independence number 4. *)

val random_tree : Slocal_util.Prng.t -> int -> Graph.t
(** Uniform random labelled tree (Prüfer sequence). *)

val random_regular : Slocal_util.Prng.t -> n:int -> d:int -> Graph.t
(** Random [d]-regular simple graph by the configuration model with
    restarts.  Requires [n·d] even and [d < n]. *)

val random_biregular : Slocal_util.Prng.t -> nw:int -> nb:int -> dw:int -> db:int -> Bipartite.t
(** Random (dw, db)-biregular 2-colored graph.  Requires
    [nw·dw = nb·db], [dw <= nb], [db <= nw]. *)

val improve_girth : Slocal_util.Prng.t -> Graph.t -> min_girth:int -> max_steps:int -> Graph.t
(** Destroy cycles shorter than [min_girth] by random degree-preserving
    2-swaps that keep the graph simple, done in place and each checked
    not to close a new short cycle.  [min_girth] is first clamped to
    the largest girth the Moore bound allows for the vertex count and
    the minimum degree.  The girth never decreases.  Gives up after
    [max_steps] attempted swaps. *)

type certified = {
  graph : Graph.t;
  girth : int option;  (** Measured girth. *)
  target_girth : int;  (** The girth aimed for, after clamping. *)
  girth_feasible : bool;
      (** Whether the requested girth satisfies the Moore bound for
          (n, d); when false, [target_girth] is below the request. *)
  independence_upper : int;
      (** An upper bound on the independence number: exact when the
          branch-and-bound finishes, otherwise a fractional-relaxation
          style bound [n - matching-based lower]; see implementation. *)
  independence_exact : bool;
}

val high_girth_low_independence :
  Slocal_util.Prng.t -> n:int -> d:int -> ?min_girth:int -> unit -> certified
(** The Lemma 2.1 substitute: a [d]-regular graph on ~[n] vertices with
    measured girth and independence certification.  [min_girth]
    defaults to [max 5 (log_d n)] (clamped by feasibility). *)

val double_cover : Graph.t -> Bipartite.t
(** Re-export of {!Bipartite.double_cover}: the Section 4.2
    construction ("take its bipartite double cover"). *)
