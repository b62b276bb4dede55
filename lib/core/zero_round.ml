open Slocal_graph
open Slocal_formalism
open Slocal_model
module Bitset = Slocal_util.Bitset
module Combinat = Slocal_util.Combinat
module Multiset = Slocal_util.Multiset
module Telemetry = Slocal_obs.Telemetry
module Pool = Slocal_obs.Pool

let biregular_arities support =
  let whites = Bipartite.whites support and blacks = Bipartite.blacks support in
  let g = Bipartite.graph support in
  match (whites, blacks) with
  | w :: _, b :: _ ->
      let dw = Graph.degree g w and db = Graph.degree g b in
      if Bipartite.is_biregular support ~dw ~db then Some (dw, db) else None
  | _ -> None

let lift_of_support support problem =
  match biregular_arities support with
  | None -> invalid_arg "Zero_round: support graph is not biregular"
  | Some (delta, r) ->
      if delta < Problem.d_white problem || r < Problem.d_black problem then
        invalid_arg "Zero_round: support degrees below problem arities";
      Lift.lift ~delta ~r problem

let solvable ?max_nodes support problem =
  Telemetry.span "zero_round.solvable" @@ fun () ->
  let l = lift_of_support support problem in
  Solver.solvable ?max_nodes support l.Lift.problem

let lift_of_hypergraph h problem =
  let delta = Hypergraph.max_degree h and r = Hypergraph.rank h in
  if not (Hypergraph.is_regular h delta && Hypergraph.is_uniform h r) then
    invalid_arg "Zero_round: support hypergraph is not regular and uniform";
  if delta < Problem.d_white problem || r < Problem.d_black problem then
    invalid_arg "Zero_round: hypergraph parameters below problem arities";
  Lift.lift ~delta ~r problem

let solvable_non_bipartite ?max_nodes h problem =
  let l = lift_of_hypergraph h problem in
  Solver.solvable ?max_nodes (Hypergraph.incidence h) l.Lift.problem

(* ------------------------------------------------------------------ *)
(* Batch decision over independent instances — the pilot parallel
   workload.  Each problem (with its on-demand constraint memo tables)
   belongs to exactly one task, and the support graph is immutable, so
   the tasks share no mutable state and a pool fan-out is safe; the
   pool writes results into index-addressed slots, making the output
   byte-identical to the sequential [jobs = 1] run. *)

let two_label_problems () =
  (* The 49-problem two-label sweep space: every pair of nonempty
     subsets of the three arity-2 multisets over {A, B}. *)
  let configs =
    [ Multiset.of_list [ 0; 0 ]; Multiset.of_list [ 0; 1 ]; Multiset.of_list [ 1; 1 ] ]
  in
  let nonempty_subsets =
    List.filter
      (fun s -> s <> [])
      (List.concat_map (fun k -> Combinat.subsets_of_size k configs) [ 1; 2; 3 ])
  in
  let alphabet = Alphabet.of_names [ "A"; "B" ] in
  List.concat_map
    (fun w ->
      List.map
        (fun b ->
          Problem.make ~name:"sweep" ~alphabet
            ~white:(Constr.make ~arity:2 w)
            ~black:(Constr.make ~arity:2 b))
        nonempty_subsets)
    nonempty_subsets

let decide_batch ?(jobs = 1) ?max_nodes ?max_assignments support problems =
  Telemetry.span "zero_round.decide_batch" @@ fun () ->
  Pool.map ~jobs
    (fun p ->
      let via_lift = solvable ?max_nodes support p in
      let via_search =
        Zero_round_search.exists_algorithm ?max_assignments support p
          ~d_in_white:(Problem.d_white p) ~d_in_black:(Problem.d_black p)
      in
      (via_lift, via_search))
    problems

(* A choice of one base label per edge whose multiset lies in the white
   constraint, if any. *)
let pick_white_choice (base : Problem.t) sets =
  let module M = Slocal_util.Multiset in
  let rec go acc chosen = function
    | [] -> if Constr.mem acc base.Problem.white then Some (List.rev chosen) else None
    | set :: rest ->
        List.fold_left
          (fun found l ->
            match found with
            | Some _ -> found
            | None ->
                let acc' = M.add l acc in
                if Constr.extendable acc' base.Problem.white then
                  go acc' (l :: chosen) rest
                else None)
          None (Bitset.to_list set)
  in
  go M.empty [] sets

let algorithm_of_lift_solution (l : Lift.t) support labeling =
  let g = Bipartite.graph support in
  if Array.length labeling <> Graph.m g then
    invalid_arg "algorithm_of_lift_solution: labeling size mismatch";
  let base = l.Lift.base in
  let d' = Problem.d_white base in
  let set_of_edge e = l.Lift.meaning.(labeling.(e)) in
  {
    Supported.rounds = 0;
    output =
      (fun view ->
        let edges = View.center_input_edges view in
        if List.length edges <> d' then
          (* Unconstrained white node: emit an arbitrary member of each
             edge's label-set. *)
          List.map (fun e -> (e, Bitset.choose (set_of_edge e))) edges
        else
          match pick_white_choice base (List.map set_of_edge edges) with
          | Some choice -> List.combine edges choice
          | None ->
              (* The lift white constraint guarantees a choice exists
                 on full-degree support nodes; fall back gracefully on
                 degenerate supports. *)
              List.map (fun e -> (e, Bitset.choose (set_of_edge e))) edges);
  }

let lift_solution_of_table (l : Lift.t) support ~d_in_white
    (tbl : Zero_round_search.table) =
  let g = Bipartite.graph support in
  let diagram = Diagram.black l.Lift.base in
  let collected = Array.make (Graph.m g) Bitset.empty in
  List.iter
    (fun v ->
      let inc = Graph.incident g v in
      List.iter
        (fun pattern ->
          match Hashtbl.find_opt tbl (v, pattern) with
          | None -> ()
          | Some tuple ->
              List.iter2
                (fun e lab -> collected.(e) <- Bitset.add lab collected.(e))
                pattern tuple)
        (Combinat.subsets_of_size d_in_white inc))
    (Bipartite.whites support);
  let labeling = Array.make (Graph.m g) (-1) in
  let ok = ref true in
  Array.iteri
    (fun e set ->
      let closed = Diagram.right_closure diagram set in
      match Lift.label_of_set l closed with
      | Some lab -> labeling.(e) <- lab
      | None -> ok := false)
    collected;
  if !ok then Some labeling else None
