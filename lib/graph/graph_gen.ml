module Prng = Slocal_util.Prng
module Telemetry = Slocal_obs.Telemetry

let c_gen_attempts = Telemetry.counter "graph.gen_attempts"
let c_repair_sweeps = Telemetry.counter "graph.repair_sweeps"

let cycle n =
  if n < 3 then invalid_arg "Graph_gen.cycle: need n >= 3";
  Graph.create ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let path n =
  if n < 1 then invalid_arg "Graph_gen.path";
  Graph.create ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.create ~n !edges

let complete_bipartite a b =
  let edges = ref [] in
  for w = 0 to a - 1 do
    for bl = 0 to b - 1 do
      edges := (w, bl) :: !edges
    done
  done;
  Bipartite.of_sides ~nw:a ~nb:b !edges

let star k =
  Graph.create ~n:(k + 1) (List.init k (fun i -> (0, i + 1)))

let hypercube d =
  let n = 1 lsl d in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then edges := (v, w) :: !edges
    done
  done;
  Graph.create ~n !edges

let grid a b =
  let idx i j = (i * b) + j in
  let edges = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      if j + 1 < b then edges := (idx i j, idx i (j + 1)) :: !edges;
      if i + 1 < a then edges := (idx i j, idx (i + 1) j) :: !edges
    done
  done;
  Graph.create ~n:(a * b) !edges

let torus a b =
  if a < 3 || b < 3 then invalid_arg "Graph_gen.torus: need sides >= 3";
  let idx i j = (i * b) + j in
  let edges = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      edges := (idx i j, idx i ((j + 1) mod b)) :: !edges;
      edges := (idx i j, idx ((i + 1) mod a) j) :: !edges
    done
  done;
  Graph.create ~n:(a * b) !edges

let petersen () =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  Graph.create ~n:10 (outer @ spokes @ inner)

let random_tree rng n =
  if n < 1 then invalid_arg "Graph_gen.random_tree";
  if n = 1 then Graph.create ~n:1 []
  else if n = 2 then Graph.create ~n:2 [ (0, 1) ]
  else begin
    let prufer = Array.init (n - 2) (fun _ -> Prng.int rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) prufer;
    let edges = ref [] in
    let module H = Set.Make (Int) in
    let leaves = ref H.empty in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then leaves := H.add v !leaves
    done;
    Array.iter
      (fun v ->
        let leaf = H.min_elt !leaves in
        leaves := H.remove leaf !leaves;
        edges := (leaf, v) :: !edges;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then leaves := H.add v !leaves)
      prufer;
    (match H.elements !leaves with
    | [ a; b ] -> edges := (a, b) :: !edges
    | _ -> assert false);
    Graph.create ~n !edges
  end

(* Configuration model with swap repair: pair up d stubs per vertex
   uniformly, then fix self-loops and parallel edges by swapping the
   offending pair with a random other pair (a degree-preserving
   operation on the multigraph).  Outright rejection has acceptance
   probability ~e^{-d²/4}, hopeless beyond small d; repair converges in
   a handful of sweeps. *)
let pairing_to_simple ?(oriented = false) rng ~pairs ~endpoint ~max_sweeps =
  let npairs = Array.length pairs in
  (* Count duplicates via a table instead of a quadratic scan. *)
  let edge_key p =
    let u, v = pairs.(p) in
    let a = endpoint u and b = endpoint v in
    if a < b then (a, b) else (b, a)
  in
  let rebuild_counts () =
    let tbl = Hashtbl.create (2 * npairs) in
    for p = 0 to npairs - 1 do
      let k = edge_key p in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
    done;
    tbl
  in
  let sweeps = ref 0 in
  let ok = ref false in
  while (not !ok) && !sweeps < max_sweeps do
    incr sweeps;
    Telemetry.incr c_repair_sweeps;
    let counts = rebuild_counts () in
    let bad_list = ref [] in
    for p = 0 to npairs - 1 do
      let u, v = pairs.(p) in
      let a, b = edge_key p in
      if endpoint u = endpoint v || a = b || Hashtbl.find counts (a, b) > 1 then
        bad_list := p :: !bad_list
    done;
    if !bad_list = [] then ok := true
    else
      List.iter
        (fun p ->
          let q = Prng.int rng npairs in
          if q <> p then begin
            let u, v = pairs.(p) and x, y = pairs.(q) in
            (* In oriented mode (bipartite pairings) only the second
               components may be exchanged, preserving the sides. *)
            if oriented || Prng.bool rng then begin
              pairs.(p) <- (u, y);
              pairs.(q) <- (x, v)
            end
            else begin
              pairs.(p) <- (u, x);
              pairs.(q) <- (y, v)
            end
          end)
        !bad_list
  done;
  !ok

(* Deterministic d-regular circulant: offsets 1..d/2, plus the
   antipodal offset n/2 when d is odd (n even then, by parity). *)
let circulant n d =
  let edges = ref [] in
  for o = 1 to d / 2 do
    for i = 0 to n - 1 do
      edges := (i, (i + o) mod n) :: !edges
    done
  done;
  if d mod 2 = 1 then
    for i = 0 to (n / 2) - 1 do
      edges := (i, i + (n / 2)) :: !edges
    done;
  Graph.create ~n !edges

(* Degree-preserving double-edge-swap walk: mixes a deterministic
   regular graph towards a near-uniform random one.  Used as the
   fallback when configuration-model repair stalls (mid-density
   instances). *)
let mcmc_randomize rng g ~steps =
  let n = Graph.n g in
  let arr = Graph.edges g in
  let m = Array.length arr in
  let present = Hashtbl.create (2 * m) in
  Array.iter (fun e -> Hashtbl.replace present e ()) arr;
  let norm u v = if u < v then (u, v) else (v, u) in
  for _ = 1 to steps do
    let i = Prng.int rng m and j = Prng.int rng m in
    if i <> j then begin
      let a, b = arr.(i) in
      let c, d = arr.(j) in
      let c, d = if Prng.bool rng then (c, d) else (d, c) in
      if a <> c && a <> d && b <> c && b <> d then begin
        let e1 = norm a c and e2 = norm b d in
        if (not (Hashtbl.mem present e1)) && not (Hashtbl.mem present e2) then begin
          Hashtbl.remove present arr.(i);
          Hashtbl.remove present arr.(j);
          Hashtbl.replace present e1 ();
          Hashtbl.replace present e2 ();
          arr.(i) <- e1;
          arr.(j) <- e2
        end
      end
    end
  done;
  Graph.create ~n (Array.to_list arr)

let complement g =
  let n = Graph.n g in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (Graph.mem_edge g u v) then edges := (u, v) :: !edges
    done
  done;
  Graph.create ~n !edges

let rec regular rng ~n ~d =
  if n * d mod 2 <> 0 then invalid_arg "Graph_gen.random_regular: n*d must be even";
  if d >= n then invalid_arg "Graph_gen.random_regular: need d < n";
  if d = 0 then Graph.create ~n []
  else if 2 * d > n - 1 then
    (* Dense regime: the configuration model cannot be repaired into a
       simple graph efficiently; generate the sparse complement. *)
    complement (regular rng ~n ~d:(n - 1 - d))
  else begin
    let attempt max_sweeps =
      Telemetry.incr c_gen_attempts;
      let stubs = Array.init (n * d) (fun i -> i) in
      Prng.shuffle rng stubs;
      let pairs =
        Array.init (n * d / 2) (fun i -> (stubs.(2 * i), stubs.((2 * i) + 1)))
      in
      if pairing_to_simple rng ~pairs ~endpoint:(fun s -> s / d) ~max_sweeps
      then
        Some
          (Graph.create ~n
             (Array.to_list (Array.map (fun (u, v) -> (u / d, v / d)) pairs)))
      else None
    in
    (* A few configuration-model attempts; in the mid-density regime
       where repair stalls, fall back to a randomized circulant (exact
       degrees guaranteed, near-uniform after the swap walk). *)
    let rec go tries =
      if tries > 8 then
        mcmc_randomize rng (circulant n d) ~steps:(20 * n * d)
      else
        match attempt (200 * (1 + tries)) with
        | Some g -> g
        | None -> go (tries + 1)
    in
    go 0
  end

let random_regular rng ~n ~d =
  Telemetry.span "graph.random_regular" @@ fun () -> regular rng ~n ~d

let bipartite_complement b ~nw ~nb =
  let g = Bipartite.graph b in
  let edges = ref [] in
  for w = 0 to nw - 1 do
    for bl = 0 to nb - 1 do
      if not (Graph.mem_edge g w (nw + bl)) then edges := (w, bl) :: !edges
    done
  done;
  Bipartite.of_sides ~nw ~nb !edges

let rec random_biregular rng ~nw ~nb ~dw ~db =
  if nw * dw <> nb * db then
    invalid_arg "Graph_gen.random_biregular: stub counts differ";
  if dw > nb || db > nw then
    invalid_arg "Graph_gen.random_biregular: degree exceeds other side";
  if dw = 0 then Bipartite.of_sides ~nw ~nb []
  else if 2 * dw > nb then
    (* Dense regime: build the complement inside K_{nw,nb}. *)
    bipartite_complement
      (random_biregular rng ~nw ~nb ~dw:(nb - dw) ~db:(nw - db))
      ~nw ~nb
  else begin
  let m = nw * dw in
  let attempt () =
    Telemetry.incr c_gen_attempts;
    (* White stub i belongs to white i/dw; black stubs are encoded with
       an offset so that [endpoint] separates the sides. *)
    let black_stubs = Array.init m (fun i -> m + i) in
    Prng.shuffle rng black_stubs;
    let pairs = Array.init m (fun i -> (i, black_stubs.(i))) in
    let endpoint s = if s < m then s / dw else nw + ((s - m) / db) in
    if pairing_to_simple ~oriented:true rng ~pairs ~endpoint
         ~max_sweeps:2000
    then
      Some
        (Bipartite.of_sides ~nw ~nb
           (Array.to_list
              (Array.map (fun (w, b) -> (w / dw, (b - m) / db)) pairs)))
    else None
  in
  let rec go tries =
    if tries > 200 then failwith "random_biregular: repair failed"
    else match attempt () with Some g -> g | None -> go (tries + 1)
  in
  go 0
  end

(* The Moore bound: a graph of minimum degree d >= 2 and girth g has
   at least 1 + d·Σ_{i<r}(d-1)^i vertices when g = 2r+1, and
   2·Σ_{i<r}(d-1)^i when g = 2r.  The sum stops once it passes n. *)
let moore_feasible ~n ~d ~girth =
  d < 2
  ||
  let r = girth / 2 in
  let rec sum i term acc =
    if i = r || acc > n then acc else sum (i + 1) (term * (d - 1)) (acc + term)
  in
  let s = sum 0 1 0 in
  (if girth mod 2 = 1 then 1 + (d * s) else 2 * s) <= n

(* The largest girth the Moore bound allows on n vertices of minimum
   degree d (unbounded below degree 2). *)
let max_feasible_girth ~n ~d =
  if d < 2 then max_int
  else
    let rec up g = if moore_feasible ~n ~d ~girth:(g + 1) then up (g + 1) else g in
    up 3

let improve_girth rng g ~min_girth ~max_steps =
  let target =
    min min_girth (max_feasible_girth ~n:(Graph.n g) ~d:(Graph.min_degree g))
  in
  Girth_repair.repair rng g ~target ~max_steps

let greedy_matching_size g =
  let n = Graph.n g in
  let used = Array.make n false in
  let count = ref 0 in
  Array.iter
    (fun (u, v) ->
      if (not used.(u)) && not used.(v) then begin
        used.(u) <- true;
        used.(v) <- true;
        incr count
      end)
    (Graph.edges g);
  !count

type certified = {
  graph : Graph.t;
  girth : int option;
  target_girth : int;
  girth_feasible : bool;
  independence_upper : int;
  independence_exact : bool;
}

let high_girth_low_independence rng ~n ~d ?min_girth () =
  Telemetry.span "graph.high_girth_low_independence" @@ fun () ->
  if d < 2 then invalid_arg "high_girth_low_independence: need d >= 2";
  let n = if n * d mod 2 = 0 then n else n + 1 in
  let requested =
    match min_girth with
    | Some g -> g
    | None ->
        let lg = log (float_of_int n) /. log (float_of_int (max 2 d)) in
        max 5 (int_of_float (ceil lg))
  in
  let target_girth = min requested (max_feasible_girth ~n ~d) in
  let g = random_regular rng ~n ~d in
  let g = Girth_repair.repair rng g ~target:target_girth ~max_steps:(50 * n) in
  let girth = Girth.girth g in
  let exact_budget = if n <= 64 then 5_000_000 else 200_000 in
  let independence_upper, independence_exact =
    match Independence.exact ~max_nodes:exact_budget g with
    | Some alpha -> (alpha, true)
    | None ->
        (* α(G) <= n - ν(G) <= n - (greedy matching size). *)
        (n - greedy_matching_size g, false)
  in
  {
    graph = g;
    girth;
    target_girth;
    girth_feasible = moore_feasible ~n ~d ~girth:requested;
    independence_upper;
    independence_exact;
  }

let double_cover = Bipartite.double_cover
