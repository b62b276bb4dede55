open Slocal_graph
open Slocal_formalism
module Multiset = Slocal_util.Multiset
module Telemetry = Slocal_obs.Telemetry

type outcome =
  | Solution of int array
  | No_solution
  | Budget_exceeded

type stats = {
  nodes : int;
  backtracks : int;
  fc_prunes : int;
  max_nodes : int;
  budget_exhausted : bool;
}

exception Budget
exception Found

let c_solves = Telemetry.counter "solver.solves"
let c_nodes = Telemetry.counter "solver.nodes"
let c_backtracks = Telemetry.counter "solver.backtracks"
let c_prunes = Telemetry.counter "solver.fc_prunes"
let c_budget = Telemetry.counter "solver.budget_exhausted"
let c_solutions = Telemetry.counter "solver.solutions"

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

(* A constraint compiled to an automaton over partial multisets, filled
   lazily during one search.  State 0 is the empty multiset; [ms.(s)]
   is the multiset of state [s].  [step.(s * sigma + l)] is the state
   of [ms.(s) + {l}]: -1 when that multiset fails the node test, -2
   until first asked.  The test runs once per (state, label) pair, and
   only states that pass it are ever created, so the automaton stays
   within the downward closure of the constraint. *)
(* Built and filled by one search_raw call; never shared across calls or
   domains. *)
type automaton = {
  sigma : int;
  test : Multiset.t -> bool;
  index : (Multiset.t, int) Hashtbl.t;
  mutable ms : Multiset.t array;
  mutable step : int array;
  mutable states : int;
}

let automaton ~sigma test =
  let index = Hashtbl.create 16 in
  Hashtbl.add index Multiset.empty 0;
  {
    sigma;
    test;
    index;
    ms = Array.make 8 Multiset.empty;
    step = Array.make (8 * sigma) (-2);
    states = 1;
  }

(* Nodes whose degree is not the constraint's arity are unconstrained:
   one state, every label loops back to it. *)
let free ~sigma =
  {
    sigma;
    test = (fun _ -> true);
    index = Hashtbl.create 1;
    ms = [| Multiset.empty |];
    step = Array.make sigma 0;
    states = 1;
  }

let fill a s l =
  let part = Multiset.add l a.ms.(s) in
  let t =
    if not (a.test part) then -1
    else
      match Hashtbl.find_opt a.index part with
      | Some t -> t
      | None ->
          let t = a.states in
          if t = Array.length a.ms then begin
            let ms = Array.make (2 * t) Multiset.empty in
            Array.blit a.ms 0 ms 0 t;
            a.ms <- ms;
            let step = Array.make (2 * t * a.sigma) (-2) in
            Array.blit a.step 0 step 0 (t * a.sigma);
            a.step <- step
          end;
          a.ms.(t) <- part;
          a.states <- t + 1;
          Hashtbl.add a.index part t;
          t
  in
  a.step.((s * a.sigma) + l) <- t;
  t

let[@inline] next a s l =
  let t = a.step.((s * a.sigma) + l) in
  if t = -2 then fill a s l else t

(* The raw search, compiled once per call: the edges in BFS order with
   their endpoints, one automaton per constraint and an int state per
   node, so a search node allocates nothing and undoing an assignment
   restores two ints.  Effort is accumulated into the caller's local
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
  (* The node test: forward checking keeps a partial multiset only if
     it extends to a configuration; without it, only a complete
     multiset is tested, for membership. *)
  let compile c =
    automaton ~sigma
      (if forward_checking then fun part -> Constr.extendable part c
       else fun part -> Multiset.size part < Constr.arity c || Constr.mem part c)
  in
  let white = compile p.Problem.white and black = compile p.Problem.black in
  let unconstrained = free ~sigma in
  let node_automaton v =
    match Bipartite.color bip v with
    | Bipartite.White -> if Graph.degree g v = dw then white else unconstrained
    | Bipartite.Black -> if Graph.degree g v = db then black else unconstrained
  in
  let auto = Array.init (Graph.n g) node_automaton in
  let eu = Array.map (fun e -> fst (Graph.edge g e)) order in
  let ev = Array.map (fun e -> snd (Graph.edge g e)) order in
  (* The state of each node's partial multiset of assigned labels. *)
  let state = Array.make (Graph.n g) 0 in
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
      let e = order.(i) and u = eu.(i) and v = ev.(i) in
      let au = auto.(u) and av = auto.(v) in
      let su = state.(u) and sv = state.(v) in
      for l = 0 to sigma - 1 do
        (* A failure at [u] is counted without testing [v]. *)
        let su' = next au su l in
        let sv' = if su' < 0 then -1 else next av sv l in
        if sv' < 0 then begin
          if forward_checking then incr prunes
        end
        else begin
          labeling.(e) <- l;
          state.(u) <- su';
          state.(v) <- sv';
          assign (i + 1);
          incr backtracks;
          state.(u) <- su;
          state.(v) <- sv;
          labeling.(e) <- -1
        end
      done
    end
  in
  assign 0

(* Run [search_raw] with fresh effort accounting, translate the three
   exit paths through [on_exit], and flush the totals into the global
   telemetry counters exactly once. *)
let instrumented ~max_nodes ~forward_checking ~on_solution ~on_exit bip p =
  Telemetry.incr c_solves;
  let nodes = ref 0 and backtracks = ref 0 and prunes = ref 0 in
  let finish outcome =
    Telemetry.add c_nodes !nodes;
    Telemetry.add c_backtracks !backtracks;
    Telemetry.add c_prunes !prunes;
    ( outcome,
      {
        nodes = !nodes;
        backtracks = !backtracks;
        fc_prunes = !prunes;
        max_nodes;
        budget_exhausted = (outcome = `Budget);
      } )
  in
  let exit_kind, st =
    match
      search_raw ~max_nodes ~forward_checking ~nodes ~backtracks ~prunes ~on_solution bip p
    with
    | () -> finish `Exhausted
    | exception Found -> finish `Found
    | exception Budget ->
        Telemetry.incr c_budget;
        finish `Budget
  in
  (on_exit exit_kind, st)

let solve_stats ?(max_nodes = 20_000_000) ?(forward_checking = true) bip p =
  Telemetry.span "solver.solve" @@ fun () ->
  let result = ref No_solution in
  instrumented ~max_nodes ~forward_checking
    ~on_solution:(fun labeling ->
      result := Solution (Array.copy labeling);
      Telemetry.incr c_solutions;
      raise Found)
    ~on_exit:(fun exit_kind ->
      match exit_kind with
      | `Found | `Exhausted -> !result
      | `Budget -> Budget_exceeded)
    bip p

let solve ?max_nodes ?forward_checking bip p =
  fst (solve_stats ?max_nodes ?forward_checking bip p)

let solvable ?max_nodes bip p =
  match solve ?max_nodes bip p with
  | Solution _ -> Some true
  | No_solution -> Some false
  | Budget_exceeded -> None

let count_solutions ?(max_nodes = 20_000_000) ?(limit = max_int) bip p =
  Telemetry.span "solver.count_solutions" @@ fun () ->
  let count = ref 0 in
  fst
    (instrumented ~max_nodes ~forward_checking:true
       ~on_solution:(fun _ ->
         incr count;
         Telemetry.incr c_solutions;
         if !count >= limit then raise Found)
       ~on_exit:(fun exit_kind ->
         match exit_kind with
         | `Found | `Exhausted -> Some !count
         | `Budget -> None)
       bip p)

let solve_non_bipartite ?max_nodes h p =
  solve ?max_nodes (Hypergraph.incidence h) p
