(* The exact solver's search before it was compiled to per-constraint
   automata, kept as a differential oracle for [Solver] (see
   [test_proptest.ml]).  [edge_order] and [search_raw] are verbatim;
   [solve] and [count_solutions] return the effort next to their
   result instead of adding it to the [solver.*] telemetry counters. *)

open Slocal_graph
open Slocal_formalism
open Slocal_model
module Multiset = Slocal_util.Multiset

type counters = { nodes : int; backtracks : int; fc_prunes : int }

exception Budget
exception Found

(* Edge ordering: BFS over the graph so that consecutive variables
   share nodes and pruning bites early. *)
let edge_order g =
  let m = Graph.m g in
  let seen_edge = Array.make m false in
  let seen_node = Array.make (Graph.n g) false in
  let order = ref [] in
  let q = Queue.create () in
  for start = 0 to Graph.n g - 1 do
    if not seen_node.(start) then begin
      seen_node.(start) <- true;
      Queue.push start q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        List.iter
          (fun e ->
            if not seen_edge.(e) then begin
              seen_edge.(e) <- true;
              order := e :: !order;
              let w = Graph.other_end g e v in
              if not seen_node.(w) then begin
                seen_node.(w) <- true;
                Queue.push w q
              end
            end)
          (Graph.incident g v)
      done
    end
  done;
  Array.of_list (List.rev !order)

(* The raw search.  Effort is accumulated into the caller's local
   refs (not the global telemetry counters) so the innermost loop
   costs exactly what it did before instrumentation; callers flush the
   totals into the global counters once per solve. *)
let search_raw ~max_nodes ~forward_checking ~nodes
    ~backtracks ~prunes ~on_solution bip (p : Problem.t) =
  let g = Bipartite.graph bip in
  let m = Graph.m g in
  let order = edge_order g in
  let sigma = Alphabet.size p.Problem.alphabet in
  let dw = Problem.d_white p and db = Problem.d_black p in
  let constr_of v =
    match Bipartite.color bip v with
    | Bipartite.White -> if Graph.degree g v = dw then Some p.Problem.white else None
    | Bipartite.Black -> if Graph.degree g v = db then Some p.Problem.black else None
  in
  let node_constr = Array.init (Graph.n g) constr_of in
  (* Partial multiset of already-assigned incident labels per node. *)
  let partial = Array.make (Graph.n g) Multiset.empty in
  let labeling = Array.make m (-1) in
  let rec assign i =
    incr nodes;
    if !nodes > max_nodes then raise Budget;
    (* Live heartbeat for interactive long solves: one cheap masked
       test per node, everything else behind [Progress]'s own
       activity/throttle checks. *)
    if !nodes land 0x3FFF = 0 then
      Slocal_obs.Progress.solver_tick ~nodes:!nodes;
    if i = m then on_solution labeling
    else begin
      let e = order.(i) in
      let u, v = Graph.edge g e in
      for l = 0 to sigma - 1 do
        let ok_at w =
          match node_constr.(w) with
          | None -> true
          | Some c ->
              let part = Multiset.add l partial.(w) in
              if forward_checking then
                Constr.extendable part c
                || begin
                     incr prunes;
                     false
                   end
              else Multiset.size part < Constr.arity c || Constr.mem part c
        in
        if ok_at u && ok_at v then begin
          labeling.(e) <- l;
          partial.(u) <- Multiset.add l partial.(u);
          partial.(v) <- Multiset.add l partial.(v);
          assign (i + 1);
          incr backtracks;
          partial.(u) <- Multiset.remove l partial.(u);
          partial.(v) <- Multiset.remove l partial.(v);
          labeling.(e) <- -1
        end
      done
    end
  in
  assign 0

let run ~max_nodes ~forward_checking ~on_solution bip p =
  let nodes = ref 0 and backtracks = ref 0 and prunes = ref 0 in
  let exit_kind =
    match
      search_raw ~max_nodes ~forward_checking ~nodes ~backtracks ~prunes
        ~on_solution bip p
    with
    | () -> `Exhausted
    | exception Found -> `Found
    | exception Budget -> `Budget
  in
  (exit_kind, { nodes = !nodes; backtracks = !backtracks; fc_prunes = !prunes })

let solve ?(max_nodes = 20_000_000) ?(forward_checking = true) bip p =
  let result = ref Solver.No_solution in
  let exit_kind, counters =
    run ~max_nodes ~forward_checking
      ~on_solution:(fun labeling ->
        result := Solver.Solution (Array.copy labeling);
        raise Found)
      bip p
  in
  match exit_kind with
  | `Found | `Exhausted -> (!result, counters)
  | `Budget -> (Solver.Budget_exceeded, counters)

let count_solutions ?(max_nodes = 20_000_000) ?(limit = max_int) bip p =
  let count = ref 0 in
  let exit_kind, counters =
    run ~max_nodes ~forward_checking:true
      ~on_solution:(fun _ ->
        incr count;
        if !count >= limit then raise Found)
      bip p
  in
  match exit_kind with
  | `Found | `Exhausted -> (Some !count, counters)
  | `Budget -> (None, counters)
