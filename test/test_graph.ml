(* Tests for the graph substrate: core graphs, bipartite 2-colored
   graphs, hypergraphs, girth, matching / Hall violators, independence,
   coloring, and the generators (including the Lemma 2.1 substitute). *)

module Graph = Slocal_graph.Graph
module Bipartite = Slocal_graph.Bipartite
module Hypergraph = Slocal_graph.Hypergraph
module Girth = Slocal_graph.Girth
module Matching = Slocal_graph.Matching
module Independence = Slocal_graph.Independence
module Coloring = Slocal_graph.Coloring
module Gen = Slocal_graph.Graph_gen
module Prng = Slocal_util.Prng

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_create () =
  let g = Graph.create ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  check int_t "n" 4 (Graph.n g);
  check int_t "m" 4 (Graph.m g);
  check int_t "degree" 2 (Graph.degree g 0);
  check bool_t "regular" true (Graph.is_regular g 2);
  check (Alcotest.list int_t) "neighbors" [ 1; 3 ] (List.sort compare (Graph.neighbors g 0))

let test_graph_rejects () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~n:2 [ (1, 1) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.create: duplicate edge") (fun () ->
      ignore (Graph.create ~n:3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.create: vertex out of range") (fun () ->
      ignore (Graph.create ~n:2 [ (0, 5) ]))

let test_graph_edges () =
  let g = Graph.create ~n:3 [ (2, 0); (1, 2) ] in
  check (Alcotest.pair int_t int_t) "normalized endpoints" (0, 2) (Graph.edge g 0);
  check int_t "other_end" 2 (Graph.other_end g 0 0);
  check bool_t "mem_edge" true (Graph.mem_edge g 2 1);
  check bool_t "find_edge" true (Graph.find_edge g 0 2 = Some 0);
  check bool_t "no edge" false (Graph.mem_edge g 0 1)

let test_graph_bfs () =
  let g = Gen.path 5 in
  let d = Graph.bfs_dist g 0 in
  check int_t "path distance" 4 d.(4);
  check (Alcotest.list int_t) "ball radius 1" [ 0; 1 ] (Graph.ball g 0 1);
  check bool_t "connected" true (Graph.is_connected g)

let test_graph_components () =
  let g = Graph.create ~n:5 [ (0, 1); (2, 3) ] in
  check int_t "three components" 3 (List.length (Graph.components g));
  check bool_t "not connected" false (Graph.is_connected g)

let test_graph_induced () =
  let g = Gen.cycle 6 in
  let sub, map = Graph.induced g [ 0; 1; 2 ] in
  check int_t "induced nodes" 3 (Graph.n sub);
  check int_t "induced edges" 2 (Graph.m sub);
  check int_t "map" 2 map.(2)

let test_graph_union () =
  let u = Graph.disjoint_union (Gen.cycle 3) (Gen.cycle 4) in
  check int_t "union n" 7 (Graph.n u);
  check int_t "union m" 7 (Graph.m u);
  check int_t "components" 2 (List.length (Graph.components u))

let test_spanning_subgraph () =
  let g = Gen.cycle 4 in
  let sub = Graph.spanning_subgraph g ~keep:(fun e -> e mod 2 = 0) in
  check int_t "kept edges" 2 (Graph.m sub);
  check int_t "same nodes" 4 (Graph.n sub)

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_generators_shapes () =
  check bool_t "cycle regular" true (Graph.is_regular (Gen.cycle 7) 2);
  check int_t "complete edges" 10 (Graph.m (Gen.complete 5));
  check bool_t "hypercube regular" true (Graph.is_regular (Gen.hypercube 3) 3);
  check int_t "grid edges" 12 (Graph.m (Gen.grid 3 3));
  check bool_t "torus regular" true (Graph.is_regular (Gen.torus 3 4) 4);
  check int_t "star edges" 5 (Graph.m (Gen.star 5))

let test_petersen () =
  let p = Gen.petersen () in
  check bool_t "3-regular" true (Graph.is_regular p 3);
  check (Alcotest.option int_t) "girth 5" (Some 5) (Girth.girth p);
  check (Alcotest.option int_t) "independence 4" (Some 4) (Independence.exact p)

let test_random_tree () =
  let rng = Prng.create 5 in
  let t = Gen.random_tree rng 20 in
  check int_t "tree edges" 19 (Graph.m t);
  check bool_t "tree connected" true (Graph.is_connected t);
  check (Alcotest.option int_t) "tree acyclic" None (Girth.girth t)

let test_random_regular () =
  let rng = Prng.create 9 in
  let g = Gen.random_regular rng ~n:20 ~d:3 in
  check bool_t "3-regular" true (Graph.is_regular g 3);
  let g4 = Gen.random_regular rng ~n:15 ~d:4 in
  check bool_t "4-regular" true (Graph.is_regular g4 4)

let test_random_biregular () =
  let rng = Prng.create 13 in
  let b = Gen.random_biregular rng ~nw:6 ~nb:4 ~dw:2 ~db:3 in
  check bool_t "biregular" true (Bipartite.is_biregular b ~dw:2 ~db:3)

let test_improve_girth () =
  let rng = Prng.create 21 in
  let g = Gen.random_regular rng ~n:40 ~d:3 in
  let g' = Gen.improve_girth rng g ~min_girth:6 ~max_steps:4000 in
  check bool_t "still 3-regular" true (Graph.is_regular g' 3);
  let girth = match Girth.girth g' with None -> max_int | Some x -> x in
  check bool_t "girth improved to >= 5" true (girth >= 5)

let test_high_girth_certified () =
  let rng = Prng.create 33 in
  let c = Gen.high_girth_low_independence rng ~n:30 ~d:3 () in
  check bool_t "regular" true (Graph.is_regular c.Gen.graph 3);
  check bool_t "girth measured" true (c.Gen.girth <> None);
  check bool_t "independence positive" true (c.Gen.independence_upper > 0);
  check bool_t "independence below n" true
    (c.Gen.independence_upper < Graph.n c.Gen.graph)

(* ------------------------------------------------------------------ *)
(* Girth *)

let test_girth_known () =
  check (Alcotest.option int_t) "C5" (Some 5) (Girth.girth (Gen.cycle 5));
  check (Alcotest.option int_t) "K4" (Some 3) (Girth.girth (Gen.complete 4));
  check (Alcotest.option int_t) "hypercube" (Some 4) (Girth.girth (Gen.hypercube 3));
  check (Alcotest.option int_t) "path acyclic" None (Girth.girth (Gen.path 6));
  check (Alcotest.option int_t) "torus 4" (Some 4) (Girth.girth (Gen.torus 4 4))

let test_girth_at_least () =
  check bool_t "C6 girth >= 6" true (Girth.girth_at_least (Gen.cycle 6) 6);
  check bool_t "C6 girth >= 7 fails" false (Girth.girth_at_least (Gen.cycle 6) 7);
  check bool_t "forest girth unbounded" true (Girth.girth_at_least (Gen.path 4) 100)

let test_shortest_cycle () =
  match Girth.shortest_cycle (Gen.cycle 5) with
  | None -> Alcotest.fail "expected a cycle"
  | Some cyc ->
      check int_t "cycle length" 5 (List.length cyc);
      check int_t "all distinct" 5 (List.length (List.sort_uniq compare cyc))

let test_shortest_cycle_valid_edges () =
  let g = Gen.petersen () in
  match Girth.shortest_cycle g with
  | None -> Alcotest.fail "petersen has cycles"
  | Some cyc ->
      check int_t "length is girth" 5 (List.length cyc);
      let arr = Array.of_list cyc in
      let k = Array.length arr in
      for i = 0 to k - 1 do
        check bool_t "consecutive adjacent" true
          (Graph.mem_edge g arr.(i) arr.((i + 1) mod k))
      done

(* ------------------------------------------------------------------ *)
(* Bipartite *)

let test_bipartite_of_sides () =
  let b = Gen.complete_bipartite 2 3 in
  check int_t "whites" 2 (List.length (Bipartite.whites b));
  check int_t "blacks" 3 (List.length (Bipartite.blacks b));
  check int_t "white degree" 3 (Bipartite.white_degree b);
  check bool_t "biregular" true (Bipartite.is_biregular b ~dw:3 ~db:2)

let test_bipartite_rejects_odd () =
  Alcotest.check_raises "odd cycle"
    (Invalid_argument "Bipartite.make: improper 2-coloring") (fun () ->
      let g = Gen.cycle 3 in
      ignore (Bipartite.make g [| Bipartite.White; Bipartite.Black; Bipartite.White |]))

let test_double_cover () =
  let p = Gen.petersen () in
  let cover = Bipartite.double_cover p in
  check int_t "cover size" 20 (Bipartite.n cover);
  check int_t "cover edges" 30 (Bipartite.m cover);
  check bool_t "cover biregular" true (Bipartite.is_biregular cover ~dw:3 ~db:3);
  (match Girth.girth (Bipartite.graph cover) with
  | None -> Alcotest.fail "cover has cycles"
  | Some g -> check bool_t "cover girth >= original" true (g >= 5))

let test_try_2_coloring () =
  (match Bipartite.try_2_coloring (Gen.cycle 6) with
  | None -> Alcotest.fail "even cycle is bipartite"
  | Some colors ->
      let g = Gen.cycle 6 in
      Array.iter
        (fun (u, v) ->
          check bool_t "proper" true (colors.(u) <> colors.(v)))
        (Graph.edges g));
  check bool_t "odd cycle not bipartite" true
    (Bipartite.try_2_coloring (Gen.cycle 5) = None)

(* ------------------------------------------------------------------ *)
(* Hypergraph *)

let test_hypergraph_basics () =
  let h = Hypergraph.create ~n:4 [ [ 0; 1; 2 ]; [ 2; 3 ] ] in
  check int_t "edges" 2 (Hypergraph.num_edges h);
  check int_t "rank" 3 (Hypergraph.rank h);
  check int_t "degree of shared node" 2 (Hypergraph.degree h 2);
  check bool_t "linear" true (Hypergraph.is_linear h);
  check bool_t "uniform fails" false (Hypergraph.is_uniform h 3)

let test_hypergraph_not_linear () =
  let h = Hypergraph.create ~n:4 [ [ 0; 1; 2 ]; [ 0; 1; 3 ] ] in
  check bool_t "shares two nodes" false (Hypergraph.is_linear h)

let test_incidence () =
  let h = Hypergraph.create ~n:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let inc = Hypergraph.incidence h in
  check int_t "incidence nodes" 5 (Bipartite.n inc);
  check int_t "incidence edges" 4 (Bipartite.m inc)

let test_hypergraph_of_graph () =
  let h = Hypergraph.of_graph (Gen.cycle 4) in
  check bool_t "2-uniform" true (Hypergraph.is_uniform h 2);
  check (Alcotest.option int_t) "hypergraph girth = graph girth" (Some 4)
    (Hypergraph.girth h)

(* ------------------------------------------------------------------ *)
(* Matching / Hall *)

let test_matching_perfect () =
  (* K_{3,3} has a perfect matching. *)
  let adj _ = [ 0; 1; 2 ] in
  let m = Matching.max_matching ~n_left:3 ~n_right:3 ~adj in
  check int_t "matching size" 3 m.Matching.size;
  check bool_t "left perfect" true (Matching.is_left_perfect m)

let test_matching_deficient () =
  (* Two left vertices share a single right vertex. *)
  let adj _ = [ 0 ] in
  let m = Matching.max_matching ~n_left:2 ~n_right:1 ~adj in
  check int_t "matching size" 1 m.Matching.size;
  match Matching.hall_violator ~n_left:2 ~n_right:1 ~adj with
  | None -> Alcotest.fail "expected a Hall violator"
  | Some c ->
      check bool_t "violator bigger than neighborhood" true (List.length c > 1)

let test_hall_violator_property () =
  (* Left 0,1 -> right 0; left 2 -> right 1,2. *)
  let adj = function 0 -> [ 0 ] | 1 -> [ 0 ] | _ -> [ 1; 2 ] in
  match Matching.hall_violator ~n_left:3 ~n_right:3 ~adj with
  | None -> Alcotest.fail "expected a violator"
  | Some c ->
      let neighborhood =
        List.sort_uniq compare (List.concat_map adj c)
      in
      check bool_t "|N(C)| < |C|" true
        (List.length neighborhood < List.length c)

let prop_hall_dichotomy =
  (* Either a perfect matching or a violator, never both. *)
  QCheck.Test.make ~name:"Hall dichotomy on random bipartite graphs" ~count:100
    QCheck.(pair (int_range 1 6) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let adj_tbl =
        Array.init n (fun _ ->
            List.filter (fun _ -> Prng.bool rng) (List.init n (fun j -> j)))
      in
      let adj i = adj_tbl.(i) in
      let m = Matching.max_matching ~n_left:n ~n_right:n ~adj in
      let violator = Matching.hall_violator ~n_left:n ~n_right:n ~adj in
      match violator with
      | None -> Matching.is_left_perfect m
      | Some c ->
          (not (Matching.is_left_perfect m))
          && List.length (List.sort_uniq compare (List.concat_map adj c))
             < List.length c)

(* ------------------------------------------------------------------ *)
(* Independence *)

let test_independence_known () =
  check (Alcotest.option int_t) "C5" (Some 2) (Independence.exact (Gen.cycle 5));
  check (Alcotest.option int_t) "C6" (Some 3) (Independence.exact (Gen.cycle 6));
  check (Alcotest.option int_t) "K5" (Some 1) (Independence.exact (Gen.complete 5));
  check (Alcotest.option int_t) "empty graph" (Some 4)
    (Independence.exact (Graph.create ~n:4 []))

let test_independence_greedy_is_independent () =
  let g = Gen.petersen () in
  let s = Independence.greedy g in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u <> v then check bool_t "independent" false (Graph.mem_edge g u v))
        s)
    s

let prop_greedy_below_exact =
  QCheck.Test.make ~name:"greedy <= exact independence" ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.random_regular rng ~n:14 ~d:3 in
      match Independence.exact g with
      | None -> true
      | Some alpha -> List.length (Independence.greedy g) <= alpha)

(* ------------------------------------------------------------------ *)
(* Coloring *)

let test_coloring_greedy_proper () =
  let g = Gen.petersen () in
  let colors = Coloring.greedy g in
  check bool_t "proper" true (Coloring.is_proper g colors);
  check bool_t "at most Δ+1 colors" true (Coloring.num_colors colors <= 4)

let test_degeneracy () =
  check int_t "tree degeneracy" 1 (Coloring.degeneracy (Gen.path 6));
  check int_t "cycle degeneracy" 2 (Coloring.degeneracy (Gen.cycle 5));
  check int_t "K4 degeneracy" 3 (Coloring.degeneracy (Gen.complete 4))

let test_smallest_last () =
  let g = Gen.cycle 7 in
  let colors = Coloring.smallest_last g in
  check bool_t "proper" true (Coloring.is_proper g colors);
  check bool_t "odd cycle needs 3" true (Coloring.num_colors colors = 3)

let test_chromatic_number () =
  check (Alcotest.option int_t) "bipartite" (Some 2)
    (Coloring.chromatic_number (Gen.cycle 6));
  check (Alcotest.option int_t) "odd cycle" (Some 3)
    (Coloring.chromatic_number (Gen.cycle 7));
  check (Alcotest.option int_t) "K5" (Some 5)
    (Coloring.chromatic_number (Gen.complete 5));
  check (Alcotest.option int_t) "petersen" (Some 3)
    (Coloring.chromatic_number (Gen.petersen ()));
  check (Alcotest.option int_t) "empty" (Some 1)
    (Coloring.chromatic_number (Graph.create ~n:3 []))

let prop_chromatic_vs_greedy =
  QCheck.Test.make ~name:"chromatic <= greedy colors" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.random_regular rng ~n:12 ~d:3 in
      match Coloring.chromatic_number g with
      | None -> true
      | Some chi ->
          Coloring.is_proper g (Coloring.smallest_last g)
          && chi <= Coloring.num_colors (Coloring.smallest_last g))


(* ------------------------------------------------------------------ *)
(* Hypergraph generators *)

module Hgen = Slocal_graph.Hypergraph_gen

let test_complete_3_uniform () =
  let h = Hgen.complete_3_uniform 5 in
  check int_t "C(5,3) hyperedges" 10 (Hypergraph.num_edges h);
  check bool_t "3-uniform" true (Hypergraph.is_uniform h 3);
  check bool_t "not linear" false (Hypergraph.is_linear h)

let test_tight_cycle () =
  let h = Hgen.tight_cycle 7 3 in
  check int_t "n hyperedges" 7 (Hypergraph.num_edges h);
  check bool_t "3-regular" true (Hypergraph.is_regular h 3);
  check bool_t "3-uniform" true (Hypergraph.is_uniform h 3);
  check bool_t "consecutive windows overlap" false (Hypergraph.is_linear h)

let test_random_regular_uniform () =
  let rng = Prng.create 17 in
  let h = Hgen.random_regular_uniform rng ~n:24 ~degree:3 ~rank:3 () in
  check bool_t "3-regular" true (Hypergraph.is_regular h 3);
  check bool_t "3-uniform" true (Hypergraph.is_uniform h 3);
  check bool_t "linear" true (Hypergraph.is_linear h);
  (match Hypergraph.girth h with
  | None -> ()
  | Some g -> check bool_t "linear means girth >= 3" true (g >= 3))

let test_random_regular_uniform_nonlinear () =
  let rng = Prng.create 19 in
  let h =
    Hgen.random_regular_uniform rng ~n:12 ~degree:2 ~rank:4
      ~require_linear:false ()
  in
  check bool_t "2-regular" true (Hypergraph.is_regular h 2);
  check bool_t "4-uniform" true (Hypergraph.is_uniform h 4)

let test_incidence_swap_girth () =
  let rng = Prng.create 23 in
  let h = Hgen.random_regular_uniform rng ~n:30 ~degree:3 ~rank:3 ~require_linear:false () in
  let h' = Hgen.incidence_swap_girth rng h ~min_girth:3 ~max_steps:2000 in
  check bool_t "degrees preserved" true (Hypergraph.is_regular h' 3);
  check bool_t "rank preserved" true (Hypergraph.is_uniform h' 3)

let test_mcmc_dense_regular () =
  (* The circulant + swap-walk fallback serves the mid-density regime. *)
  let rng = Prng.create 29 in
  List.iter
    (fun (n, d) ->
      let g = Gen.random_regular rng ~n ~d in
      check bool_t (Printf.sprintf "regular n=%d d=%d" n d) true
        (Graph.is_regular g d))
    [ (20, 9); (30, 14); (16, 12) ]


(* ------------------------------------------------------------------ *)
(* Structural properties of the generators *)

let prop_double_cover_girth =
  QCheck.Test.make ~name:"double cover: bipartite, biregular, girth >= original"
    ~count:40
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.random_regular rng ~n:12 ~d:3 in
      let cover = Bipartite.double_cover g in
      let cg = Bipartite.graph cover in
      Bipartite.is_biregular cover ~dw:3 ~db:3
      && Graph.n cg = 2 * Graph.n g
      &&
      match (Girth.girth g, Girth.girth cg) with
      | Some go, Some gc -> gc >= go && gc mod 2 = 0
      | None, _ -> true
      | Some _, None -> true)

let prop_improve_girth_degrees =
  QCheck.Test.make ~name:"improve_girth preserves the degree sequence" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.random_regular rng ~n:24 ~d:4 in
      let g' = Gen.improve_girth rng g ~min_girth:6 ~max_steps:500 in
      Graph.is_regular g' 4)

let prop_random_regular_handshake =
  QCheck.Test.make ~name:"random regular: m = n*d/2" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 3 6))
    (fun (seed, d) ->
      let rng = Prng.create seed in
      let n = 12 in
      let g = Gen.random_regular rng ~n ~d in
      Graph.m g = n * d / 2)

let prop_hypergraph_generator_girth =
  QCheck.Test.make ~name:"linear hypergraphs have girth >= 3" ~count:15
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Prng.create seed in
      let h = Hgen.random_regular_uniform rng ~n:24 ~degree:3 ~rank:3 () in
      match Hypergraph.girth h with None -> true | Some g -> g >= 3)

let test_tight_cycle_girth () =
  let h = Hgen.tight_cycle 8 2 in
  (* r = 2: this is exactly the cycle C8. *)
  check (Alcotest.option int_t) "2-uniform tight cycle girth" (Some 8)
    (Hypergraph.girth h)

(* The Moore bound n₀(d, g), computed here independently of the
   generator. *)
let moore_bound ~d ~g =
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let s = List.fold_left (fun acc i -> acc + pow (d - 1) i) 0 (List.init (g / 2) Fun.id) in
  if g mod 2 = 1 then 1 + (d * s) else 2 * s

let max_feasible_girth ~n ~d =
  let rec up g = if moore_bound ~d ~g:(g + 1) <= n then up (g + 1) else g in
  up 3

let is_simple g =
  let norm (u, v) = (min u v, max u v) in
  let es = Array.to_list (Array.map norm (Graph.edges g)) in
  List.for_all (fun (u, v) -> u <> v) es
  && List.length (List.sort_uniq compare es) = List.length es

let girth_or_inf g = Option.value (Girth.girth g) ~default:max_int

let test_improve_girth_property () =
  List.iter
    (fun (n, d) ->
      List.iter
        (fun seed ->
          let rng = Prng.create seed in
          let g = Gen.random_regular rng ~n ~d in
          let target = min 6 (max_feasible_girth ~n ~d) in
          let out = Gen.improve_girth rng g ~min_girth:6 ~max_steps:(50 * n) in
          let name = Printf.sprintf "(%d,%d) seed %d" n d seed in
          check int_t (name ^ " same n") n (Graph.n out);
          check bool_t (name ^ " regular") true (Graph.is_regular out d);
          check bool_t (name ^ " simple") true (is_simple out);
          check bool_t (name ^ " girth never below min(target, input))") true
            (girth_or_inf out >= min target (girth_or_inf g));
          let c = Gen.high_girth_low_independence rng ~n ~d ~min_girth:5 () in
          check (Alcotest.option int_t) (name ^ " certified girth measured")
            (Girth.girth c.Gen.graph) c.Gen.girth;
          check bool_t (name ^ " feasible iff n >= n0(d, 5)")
            (Graph.n c.Gen.graph >= moore_bound ~d ~g:5)
            c.Gen.girth_feasible;
          check int_t (name ^ " target clamped")
            (min 5 (max_feasible_girth ~n:(Graph.n c.Gen.graph) ~d))
            c.Gen.target_girth)
        [ 1; 2; 3 ])
    [ (20, 3); (32, 3); (30, 4); (40, 5); (24, 8); (32, 12) ]

let test_girth_five_cubic () =
  List.iter
    (fun n ->
      for seed = 1 to 10 do
        let rng = Prng.create seed in
        let g = Gen.random_regular rng ~n ~d:3 in
        let out = Gen.improve_girth rng g ~min_girth:5 ~max_steps:(50 * n) in
        check bool_t
          (Printf.sprintf "n=%d seed %d reaches girth 5" n seed)
          true
          (girth_or_inf out >= 5)
      done)
    [ 32; 40; 48 ]

(* α by enumerating every vertex subset as a bitmask. *)
let brute_force_alpha g =
  let n = Graph.n g in
  let adj = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      adj.(u) <- adj.(u) lor (1 lsl v);
      adj.(v) <- adj.(v) lor (1 lsl u))
    (Graph.edges g);
  let best = ref 0 in
  for s = 0 to (1 lsl n) - 1 do
    let independent = ref true and size = ref 0 in
    for v = 0 to n - 1 do
      if s land (1 lsl v) <> 0 then begin
        incr size;
        if s land adj.(v) <> 0 then independent := false
      end
    done;
    if !independent && !size > !best then best := !size
  done;
  !best

let test_independence_brute_force () =
  for seed = 1 to 40 do
    let rng = Prng.create seed in
    let n = 4 + Prng.int rng 11 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Prng.int rng 100 < 30 then edges := (u, v) :: !edges
      done
    done;
    let g = Graph.create ~n !edges in
    check (Alcotest.option int_t)
      (Printf.sprintf "seed %d n=%d" seed n)
      (Some (brute_force_alpha g)) (Independence.exact g)
  done

let test_independence_budget () =
  (* A big random graph exceeds a tiny budget. *)
  let rng = Prng.create 3 in
  let g = Gen.random_regular rng ~n:60 ~d:6 in
  check (Alcotest.option int_t) "budget exhausted" None
    (Independence.exact ~max_nodes:10 g)

let test_chromatic_budget () =
  let rng = Prng.create 3 in
  let g = Gen.random_regular rng ~n:40 ~d:8 in
  check bool_t "tiny budget gives up or answers" true
    (match Coloring.chromatic_number ~max_nodes:5 g with
    | None -> true
    | Some c -> c >= 2)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hall_dichotomy;
      prop_greedy_below_exact;
      prop_chromatic_vs_greedy;
      prop_double_cover_girth;
      prop_improve_girth_degrees;
      prop_random_regular_handshake;
      prop_hypergraph_generator_girth;
    ]

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "create" `Quick test_graph_create;
          Alcotest.test_case "rejects" `Quick test_graph_rejects;
          Alcotest.test_case "edges" `Quick test_graph_edges;
          Alcotest.test_case "bfs" `Quick test_graph_bfs;
          Alcotest.test_case "components" `Quick test_graph_components;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          Alcotest.test_case "union" `Quick test_graph_union;
          Alcotest.test_case "spanning subgraph" `Quick test_spanning_subgraph;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generators_shapes;
          Alcotest.test_case "petersen" `Quick test_petersen;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "random biregular" `Quick test_random_biregular;
          Alcotest.test_case "improve girth" `Quick test_improve_girth;
          Alcotest.test_case "high girth certified" `Quick test_high_girth_certified;
          Alcotest.test_case "improve girth property" `Quick test_improve_girth_property;
          Alcotest.test_case "girth 5 on cubic graphs" `Quick test_girth_five_cubic;
        ] );
      ( "girth",
        [
          Alcotest.test_case "known values" `Quick test_girth_known;
          Alcotest.test_case "girth_at_least" `Quick test_girth_at_least;
          Alcotest.test_case "shortest cycle" `Quick test_shortest_cycle;
          Alcotest.test_case "cycle edges valid" `Quick test_shortest_cycle_valid_edges;
        ] );
      ( "bipartite",
        [
          Alcotest.test_case "of_sides" `Quick test_bipartite_of_sides;
          Alcotest.test_case "rejects odd" `Quick test_bipartite_rejects_odd;
          Alcotest.test_case "double cover" `Quick test_double_cover;
          Alcotest.test_case "2-coloring" `Quick test_try_2_coloring;
        ] );
      ( "hypergraph",
        [
          Alcotest.test_case "basics" `Quick test_hypergraph_basics;
          Alcotest.test_case "linearity" `Quick test_hypergraph_not_linear;
          Alcotest.test_case "incidence" `Quick test_incidence;
          Alcotest.test_case "of_graph" `Quick test_hypergraph_of_graph;
        ] );
      ( "hypergraph generators",
        [
          Alcotest.test_case "complete 3-uniform" `Quick test_complete_3_uniform;
          Alcotest.test_case "tight cycle" `Quick test_tight_cycle;
          Alcotest.test_case "random regular uniform" `Quick test_random_regular_uniform;
          Alcotest.test_case "non-linear variant" `Quick test_random_regular_uniform_nonlinear;
          Alcotest.test_case "incidence swap girth" `Quick test_incidence_swap_girth;
          Alcotest.test_case "dense regular fallback" `Quick test_mcmc_dense_regular;
          Alcotest.test_case "tight cycle girth" `Quick test_tight_cycle_girth;
        ] );
      ( "matching",
        [
          Alcotest.test_case "perfect" `Quick test_matching_perfect;
          Alcotest.test_case "deficient" `Quick test_matching_deficient;
          Alcotest.test_case "hall violator" `Quick test_hall_violator_property;
        ] );
      ( "independence",
        [
          Alcotest.test_case "known values" `Quick test_independence_known;
          Alcotest.test_case "greedy independent" `Quick test_independence_greedy_is_independent;
          Alcotest.test_case "budget" `Quick test_independence_budget;
          Alcotest.test_case "brute force" `Quick test_independence_brute_force;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "greedy proper" `Quick test_coloring_greedy_proper;
          Alcotest.test_case "degeneracy" `Quick test_degeneracy;
          Alcotest.test_case "smallest last" `Quick test_smallest_last;
          Alcotest.test_case "chromatic number" `Quick test_chromatic_number;
          Alcotest.test_case "chromatic budget" `Quick test_chromatic_budget;
        ] );
      ("properties", qsuite);
    ]
