let complete_3_uniform n =
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      for c = b + 1 to n - 1 do
        edges := [ a; b; c ] :: !edges
      done
    done
  done;
  Hypergraph.create ~n !edges

let tight_cycle n r =
  if r < 2 || r > n then invalid_arg "Hypergraph_gen.tight_cycle";
  Hypergraph.create ~n
    (List.init n (fun i -> List.init r (fun j -> (i + j) mod n)))

let hypergraph_of_incidence ~n_vertices graph =
  let num_edges = Graph.n graph - n_vertices in
  Hypergraph.create ~n:n_vertices
    (List.init num_edges (fun j -> Graph.neighbors graph (n_vertices + j)))

let incidence_swap_girth rng h ~min_girth ~max_steps =
  let n_vertices = Hypergraph.n h in
  (* Whites are the vertices, blacks the hyperedges: exchanging only
     black endpoints keeps every degree and every rank. *)
  Girth_repair.repair
    ~white:(fun v -> v < n_vertices)
    rng
    (Bipartite.graph (Hypergraph.incidence h))
    ~target:(2 * min_girth) ~max_steps
  |> hypergraph_of_incidence ~n_vertices

let random_regular_uniform rng ~n ~degree ~rank ?(require_linear = true) () =
  if degree < 1 || rank < 2 then
    invalid_arg "Hypergraph_gen.random_regular_uniform";
  (* Round n up so that n·degree is a multiple of rank. *)
  let n = ref n in
  while !n * degree mod rank <> 0 do
    incr n
  done;
  let n = !n in
  let num_edges = n * degree / rank in
  if rank > n then invalid_arg "random_regular_uniform: rank > n";
  let incidence =
    Graph_gen.random_biregular rng ~nw:n ~nb:num_edges ~dw:degree ~db:rank
  in
  let h = hypergraph_of_incidence ~n_vertices:n (Bipartite.graph incidence) in
  if not require_linear then h
  else begin
    (* Linearity = no two hyperedges share two vertices = no 4-cycle in
       the incidence graph = hypergraph girth >= 3. *)
    let h = incidence_swap_girth rng h ~min_girth:3 ~max_steps:(50 * n) in
    if Hypergraph.is_linear h then h
    else failwith "random_regular_uniform: could not reach linearity"
  end
