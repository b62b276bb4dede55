open Slocal_graph
open Slocal_model

type certificate =
  | Unsolvable_by_search
  | Solvable of int array
  | Undecided

type result = {
  support_nodes : int;
  girth : int option;
  lift : Lift.t;
  certificate : certificate;
  det_rounds : int option;
}

let solve_certificate ?max_nodes bip problem =
  match Solver.solve ?max_nodes bip problem with
  | Solver.Solution s -> Solvable s
  | Solver.No_solution -> Unsolvable_by_search
  | Solver.Budget_exceeded -> Undecided

let analyze ?max_nodes support ~last_problem ~k =
  let lift = Zero_round.lift_of_support support last_problem in
  let g = Bipartite.graph support in
  let girth = Girth.girth g in
  let certificate = solve_certificate ?max_nodes support lift.Lift.problem in
  let det_rounds =
    match (certificate, girth) with
    | Unsolvable_by_search, Some girth ->
        Some (max 0 (Re_supported.theorem_b2 ~k ~girth))
    | Unsolvable_by_search, None ->
        (* Acyclic support: the (g-4)/2 term is unbounded. *)
        Some (2 * k)
    | (Solvable _ | Undecided), _ -> None
  in
  { support_nodes = Graph.n g; girth; lift; certificate; det_rounds }

let analyze_hypergraph ?max_nodes h ~last_problem ~k =
  let lift = Zero_round.lift_of_hypergraph h last_problem in
  let girth = Hypergraph.girth h in
  let incidence = Hypergraph.incidence h in
  let certificate = solve_certificate ?max_nodes incidence lift.Lift.problem in
  let det_rounds =
    match (certificate, girth) with
    | Unsolvable_by_search, Some girth ->
        Some (max 0 (Re_supported.corollary_b3 ~k ~girth))
    | Unsolvable_by_search, None -> Some k
    | (Solvable _ | Undecided), _ -> None
  in
  {
    support_nodes = Hypergraph.n h;
    girth;
    lift;
    certificate;
    det_rounds;
  }

let pp_result fmt r =
  let cert =
    match r.certificate with
    | Unsolvable_by_search -> "lift unsolvable (exact search)"
    | Solvable _ -> "lift solvable"
    | Undecided -> "undecided (budget)"
  in
  Format.fprintf fmt "n=%d girth=%s lift-labels=%d %s%s" r.support_nodes
    (match r.girth with None -> "∞" | Some g -> string_of_int g)
    (Array.length r.lift.Lift.meaning)
    cert
    (match r.det_rounds with
    | None -> ""
    | Some d -> Printf.sprintf " ⇒ det rounds >= %d" d)
