open Slocal_graph
open Slocal_formalism
module Multiset = Slocal_util.Multiset
module Telemetry = Slocal_obs.Telemetry

type violation =
  | White_node of int
  | Black_node of int

let c_checks = Telemetry.counter "checker.checks"
let c_nodes_checked = Telemetry.counter "checker.nodes_checked"
let c_violations = Telemetry.counter "checker.violations"

let node_labels g labeling v =
  Multiset.of_list (List.map (fun e -> labeling.(e)) (Graph.incident g v))

let check_on bip (p : Problem.t) ~in_s labeling =
  let g = Bipartite.graph bip in
  if Array.length labeling <> Graph.m g then
    invalid_arg "Checker: labeling size mismatch";
  Telemetry.incr c_checks;
  let dw = Problem.d_white p and db = Problem.d_black p in
  let checked = ref 0 in
  let violations = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if in_s v then begin
      incr checked;
      let deg = Graph.degree g v in
      match Bipartite.color bip v with
      | Bipartite.White ->
          if deg = dw && not (Constr.mem (node_labels g labeling v) p.Problem.white)
          then violations := White_node v :: !violations
      | Bipartite.Black ->
          if deg = db && not (Constr.mem (node_labels g labeling v) p.Problem.black)
          then violations := Black_node v :: !violations
    end
  done;
  Telemetry.add c_nodes_checked !checked;
  Telemetry.add c_violations (List.length !violations);
  !violations

let check bip p labeling = check_on bip p ~in_s:(fun _ -> true) labeling
let is_solution bip p labeling = check bip p labeling = []
let is_solution_on bip p ~in_s labeling = check_on bip p ~in_s labeling = []

let check_non_bipartite h (p : Problem.t) labeling =
  let dw = Problem.d_white p and db = Problem.d_black p in
  let violations = ref [] in
  for e = Hypergraph.num_edges h - 1 downto 0 do
    let members = Hypergraph.hyperedge h e in
    if List.length members = db then begin
      let labels = Multiset.of_list (List.map (fun v -> labeling v e) members) in
      if not (Constr.mem labels p.Problem.black) then
        violations := Black_node e :: !violations
    end
  done;
  for v = Hypergraph.n h - 1 downto 0 do
    if Hypergraph.degree h v = dw then begin
      let incident =
        List.filter
          (fun e -> List.mem v (Hypergraph.hyperedge h e))
          (List.init (Hypergraph.num_edges h) (fun e -> e))
      in
      let labels = Multiset.of_list (List.map (fun e -> labeling v e) incident) in
      if not (Constr.mem labels p.Problem.white) then
        violations := White_node v :: !violations
    end
  done;
  !violations

let is_non_bipartite_solution h p labeling = check_non_bipartite h p labeling = []
