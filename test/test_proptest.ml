(* Differential property suite: the fast kernel against the reference
   oracles, on seeded random instances (see [proptest.ml] for the
   harness).

   Two families of properties:

   - whole-step: [Re_step.re] (fast kernel, cache off) produces the
     same problem as [Re_reference.re] up to label renaming, on 200
     random problems per arity profile — including problems where both
     must reject with an empty result constraint;

   - per-query: [Constr]'s membership / extendability /
     quantified-choice queries (packed keys, down-closure pruning)
     agree with the plain scans in [Constr_reference] on random
     constraints and random condensed queries.

   The seed defaults to a fixed value and can be rotated from the
   environment: PROPTEST_SEED=12345 dune runtest. *)

module Multiset = Slocal_util.Multiset
open Slocal_formalism

let seed = Proptest.seed_from_env ~default:420824
let () = Printf.printf "proptest: PROPTEST_SEED=%d\n%!" seed

let run p =
  match Proptest.run ~seed p with
  | () -> ()
  | exception Failure msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Fast RE vs reference RE *)

(* Both kernels reject problems whose RE has an empty result
   constraint; agreement includes agreeing to reject. *)
let re_outcome f p =
  match f p with
  | q -> Some q
  | exception Invalid_argument _ -> None

(* RE on a random problem can be genuinely exponential: R can emit a
   large antichain alphabet, and then the candidate family of R̄ (the
   right-closed sets of the new diagram) explodes — in both kernels.
   The R step is always compared; the R̄ step only when its candidate
   enumeration is tractable for the bottom-up reference oracle. *)
let r_bar_tractable q =
  Alphabet.size q.Problem.alphabet <= 12
  &&
  let candidates =
    List.length (Diagram.right_closed_sets (Diagram.white q))
  in
  (* The oracle answers each of the multichoose(c, d) configurations by
     unmemoized scans over the constraint list, so bound the product. *)
  Slocal_util.Combinat.multichoose candidates (Problem.d_white q)
  * Constr.size q.Problem.white
  <= 100_000

let agree p =
  let fast = re_outcome (fun p -> (Re_step.r_black p).Re_step.problem) p
  and slow = re_outcome (fun p -> fst (Re_reference.r_black p)) p in
  match (fast, slow) with
  | None, None -> true
  | Some q1, Some q2 ->
      Problem.equal_up_to_renaming q1 q2
      && (not (r_bar_tractable q1)
         ||
         let fast' =
           re_outcome (fun q -> (Re_step.r_white q).Re_step.problem) q1
         and slow' = re_outcome (fun q -> fst (Re_reference.r_white q)) q1 in
         match (fast', slow') with
         | None, None -> true
         | Some r1, Some r2 -> Problem.equal_up_to_renaming r1 r2
         | _ -> false)
  | _ -> false

let arity_profiles = [ (2, 2); (2, 3); (3, 2); (3, 3); (4, 2) ]

let re_tests =
  List.map
    (fun (d_white, d_black) ->
      let name = Printf.sprintf "re fast = reference (%d,%d)" d_white d_black in
      Alcotest.test_case name `Slow (fun () ->
          run
            (Proptest.property ~count:200 ~name
               ~gen:(Proptest.problem ~d_white ~d_black)
               ~print:Proptest.print_problem ~shrink:Proptest.shrink_problem
               agree)))
    arity_profiles

(* ------------------------------------------------------------------ *)
(* Constraint queries vs the scanning oracle *)

type query_case = {
  constr : Constr.t;
  full : int list list; (* arity positions *)
  partial : int list list; (* 1 .. arity-1 positions *)
  m : Multiset.t; (* size 0 .. arity+1 *)
}

let query_gen g =
  let arity = Proptest.int_range 2 3 g in
  let n = Proptest.int_range 2 4 g in
  let labels = List.init n (fun i -> i) in
  let constr = Proptest.constr ~arity ~labels g in
  {
    constr;
    full = Proptest.query ~positions:arity ~labels g;
    partial =
      Proptest.query ~positions:(Proptest.int_range 1 (arity - 1) g) ~labels g;
    m = Proptest.multiset ~size:(Proptest.int_range 0 (arity + 1) g) ~labels g;
  }

let print_query_case c =
  let sets ss =
    String.concat " "
      (List.map
         (fun s -> "{" ^ String.concat "," (List.map string_of_int s) ^ "}")
         ss)
  in
  Printf.sprintf "constr (arity %d): %s\nfull: %s\npartial: %s\nm: %s"
    (Constr.arity c.constr)
    (String.concat " | "
       (List.map
          (fun m ->
            String.concat "" (List.map string_of_int (Multiset.to_list m)))
          (Constr.configs c.constr)))
    (sets c.full) (sets c.partial)
    (String.concat "" (List.map string_of_int (Multiset.to_list c.m)))

let queries_agree c =
  let open Constr_reference in
  Constr.mem c.m c.constr = mem c.m c.constr
  && Constr.extendable c.m c.constr = extendable c.m c.constr
  && Constr.exists_choice c.full c.constr = exists_choice c.full c.constr
  && Constr.for_all_choices c.full c.constr = for_all_choices c.full c.constr
  && Constr.exists_choice_partial c.partial c.constr
     = exists_choice_partial c.partial c.constr
  && Constr.for_all_choices_partial c.partial c.constr
     = for_all_choices_partial c.partial c.constr
  (* Ask twice: the second round runs after the first has built the
     down closures, and must answer the same. *)
  && Constr.exists_choice c.full c.constr = exists_choice c.full c.constr
  && Constr.for_all_choices_partial c.partial c.constr
     = for_all_choices_partial c.partial c.constr

let constr_tests =
  [
    Alcotest.test_case "constr queries = oracle" `Slow (fun () ->
        run
          (Proptest.property ~count:400 ~name:"constr queries" ~gen:query_gen
             ~print:print_query_case queries_agree));
  ]

(* ------------------------------------------------------------------ *)
(* Relaxation search vs the oracle *)

(* [Relaxation.search] (name-guided value order, incremental black
   check, undo trail) against the search it replaced, kept verbatim in
   [relaxation_oracle.ml].  On every pair:

   - the verdict of [Relaxation.exists] equals the oracle's whenever
     the oracle decides within the budget;
   - a witness is validated on its own terms: every image is a white
     configuration of [dst], and the induced r(ℓ) (all images of ℓ)
     passes [Constr.for_all_choices] on every black configuration of
     [src];
   - on a refuted pair [relaxation.nodes] moves by exactly the
     oracle's node count (a refutation explores every consistent
     prefix, whatever the value order). *)

let relaxation_budget = 200_000
let c_relaxation_nodes = Slocal_obs.Telemetry.counter "relaxation.nodes"

let valid_witness (src : Problem.t) (dst : Problem.t) assignment =
  let r = Array.make (Alphabet.size src.Problem.alphabet) [] in
  List.map fst assignment = Constr.configs src.Problem.white
  && List.for_all
       (fun (cfg, tuple) ->
         List.length tuple = Multiset.size cfg
         && Constr.mem (Multiset.of_list tuple) dst.Problem.white
         && begin
              List.iter2
                (fun l m -> if not (List.mem m r.(l)) then r.(l) <- m :: r.(l))
                (Multiset.to_list cfg) tuple;
              true
            end)
       assignment
  && List.for_all
       (fun c ->
         Constr.for_all_choices
           (List.map (fun l -> r.(l)) (Multiset.to_list c))
           dst.Problem.black)
       (Constr.configs src.Problem.black)

(* Decided cases seen by the properties, refutations among them: the
   sanity floor below keeps the suite from passing vacuously. *)
let relaxation_decided = ref 0
let relaxation_refuted = ref 0

let relaxation_agrees (src, dst) =
  let oracle, oracle_nodes =
    Relaxation_oracle.search ~max_nodes:relaxation_budget src dst
  in
  let before = Slocal_obs.Telemetry.value c_relaxation_nodes in
  let verdict = Relaxation.exists ~max_nodes:relaxation_budget src dst in
  let nodes = Slocal_obs.Telemetry.value c_relaxation_nodes - before in
  let witness_ok =
    match Relaxation.witness ~max_nodes:relaxation_budget src dst with
    | Some w -> valid_witness src dst w
    | None -> verdict <> Some true
  in
  witness_ok
  &&
  match oracle with
  | None -> true
  | Some (Some _) ->
      incr relaxation_decided;
      verdict = Some true
  | Some None ->
      incr relaxation_decided;
      incr relaxation_refuted;
      verdict = Some false && nodes = oracle_nodes

let print_pair (src, dst) =
  Proptest.print_problem src ^ "--- dst\n" ^ Proptest.print_problem dst

(* (RE p, RE p with permuted label names): always a relaxation, but the
   name-preserving map is not the witness.  RE is iterated up to twice
   while the output stays usable: at most 8 labels (the oracle's search
   beyond that is too slow for a unit suite) and both constraints
   non-empty (the text form of an empty one does not parse back).  RE
   of a random problem often collapses to one or two labels; then p
   itself is used. *)
let re_permuted_pair g =
  let d_white, d_black = Slocal_util.Prng.pick g [ (2, 2); (2, 3); (3, 2) ] in
  let p = Proptest.problem ~d_white ~d_black g in
  let usable q =
    Alphabet.size q.Problem.alphabet <= 8
    && Constr.size q.Problem.white > 0
    && Constr.size q.Problem.black > 0
  in
  let rec climb q k =
    if k = 0 then q
    else
      match Re_step.re ~cache:false q with
      | q' when usable q' -> climb q' (k - 1)
      | _ | (exception Invalid_argument _) -> q
  in
  let q = climb p 2 in
  let q = if Alphabet.size q.Problem.alphabet < 3 then p else q in
  (q, Proptest.permute_names g q)

let relaxation_tests =
  [
    Alcotest.test_case "search = oracle (random pairs)" `Slow (fun () ->
        relaxation_decided := 0;
        relaxation_refuted := 0;
        List.iter
          (fun (d_white, d_black) ->
            run
              (Proptest.property ~count:150
                 ~name:
                   (Printf.sprintf "relaxation random pairs (%d,%d)" d_white
                      d_black)
                 ~gen:(Proptest.problem_pair ~d_white ~d_black)
                 ~print:print_pair relaxation_agrees))
          [ (2, 2); (2, 3); (3, 2) ];
        Alcotest.(check bool)
          (Printf.sprintf "sanity: %d decided, %d refuted" !relaxation_decided
             !relaxation_refuted)
          true
          (!relaxation_decided >= 300 && !relaxation_refuted >= 60));
    Alcotest.test_case "search = oracle (RE vs permuted names)" `Slow
      (fun () ->
        relaxation_decided := 0;
        run
          (Proptest.property ~count:100 ~name:"relaxation permuted names"
             ~gen:re_permuted_pair ~print:print_pair (fun pair ->
               relaxation_agrees pair
               && Relaxation.exists ~max_nodes:relaxation_budget (fst pair)
                    (snd pair)
                  = Some true));
        Alcotest.(check bool)
          (Printf.sprintf "sanity: %d decided" !relaxation_decided)
          true
          (!relaxation_decided >= 90));
  ]

(* ------------------------------------------------------------------ *)
(* Exhaustive 0-round search vs its pre-compilation oracle *)

(* [Zero_round_search.find_algorithm] against the list-and-Hashtbl
   search kept in [zero_round_search_oracle.ml], on random problems
   (2-3 labels, arities 2-3) over small supports: cycles C_4..C_12,
   K_{2,2}, K_{3,3} and random (dw, db)-biregular graphs with at most
   12 edges (the oracle pays ~µs per input graph, and there are 2^m of
   them).  Both searches must agree on the verdict, the witness table
   key for key, and the assignment, instance-check and table-lookup
   counts, also when a small budget stops them.  The witness must pass
   [table_correct] and, run through [Supported], the [Checker]. *)

module Zrs = Slocal_model.Zero_round_search
module Supported = Slocal_model.Supported
module Telemetry = Slocal_obs.Telemetry

(* A random (dw, db)-biregular support spec with at most [max_edges]
   edges, (dw, db) ∈ {2,3}², and its degrees. *)
let random_biregular ~max_edges g =
  let shapes =
    List.concat_map
      (fun (dw, db) ->
        List.filter_map
          (fun m ->
            let nw = m / dw and nb = m / db in
            if m mod dw = 0 && m mod db = 0 && dw <= nb && db <= nw then
              Some (nw, nb, dw, db)
            else None)
          (List.init max_edges (fun i -> i + 1)))
      [ (2, 2); (2, 3); (3, 2); (3, 3) ]
  in
  let nw, nb, dw, db = Slocal_util.Prng.pick g shapes in
  ( Printf.sprintf "biregular:%d:%d:%d:%d:%d" nw nb dw db
      (Slocal_util.Prng.int g 1000),
    (dw, db) )

let zrs_support g =
  match Slocal_util.Prng.int g 4 with
  | 0 | 1 -> Printf.sprintf "cycle:%d" (Proptest.int_range 2 6 g)
  | 2 -> Slocal_util.Prng.pick g [ "kbb:2:2"; "kbb:3:3" ]
  | _ -> fst (random_biregular ~max_edges:12 g)

type zrs_case = { spec : string; problem : Problem.t; budget : int }

let zrs_case g =
  let spec = zrs_support g in
  let labels = List.init (Proptest.int_range 2 3 g) (fun i -> i) in
  let arity () = Proptest.int_range 2 3 g in
  let d_white = arity () and d_black = arity () in
  let problem =
    Problem.make ~name:"random"
      ~alphabet:(Proptest.alphabet ~size:(List.length labels))
      ~white:(Proptest.constr ~arity:d_white ~labels g)
      ~black:(Proptest.constr ~arity:d_black ~labels g)
  in
  let budget =
    if Slocal_util.Prng.int g 4 = 0 then Proptest.int_range 1 40 g else 3_000
  in
  { spec; problem; budget }

let print_zrs_case c =
  Printf.sprintf "support %s, max_assignments %d\n%s" c.spec c.budget
    (Proptest.print_problem c.problem)

let same_table a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v ok -> ok && Hashtbl.find_opt b k = Some v) a true

let zrs_counters =
  List.map Telemetry.counter
    [ "zrs.assignments"; "zrs.instance_checks"; "zrs.table_hits"; "zrs.table_misses" ]

let zrs_found = ref 0
let zrs_refuted = ref 0
let zrs_budget = ref 0

let zrs_agrees c =
  let support = Slocal_serve.Ops.parse_graph c.spec in
  let p = c.problem in
  let d_in_white = Problem.d_white p and d_in_black = Problem.d_black p in
  let oracle, o =
    Zero_round_search_oracle.find_algorithm ~max_assignments:c.budget support
      p ~d_in_white ~d_in_black
  in
  let before = List.map Telemetry.value zrs_counters in
  let result =
    Zrs.find_algorithm ~max_assignments:c.budget support p ~d_in_white
      ~d_in_black
  in
  let counts =
    List.map2 (fun m b -> Telemetry.value m - b) zrs_counters before
  in
  counts
  = Zero_round_search_oracle.
      [ o.assignments; o.instance_checks; o.table_hits; o.table_misses ]
  &&
  match (oracle, result) with
  | None, None ->
      incr zrs_budget;
      true
  | Some None, Some None ->
      incr zrs_refuted;
      true
  | Some (Some expected), Some (Some table) ->
      incr zrs_found;
      same_table expected table
      && Zrs.table_correct support p ~d_in_white ~d_in_black table
      && List.for_all
           (fun inst -> Supported.solves (Zrs.algorithm_of_table table) inst p)
           (Supported.all_instances support ~max_white:d_in_white
              ~max_black:d_in_black)
  | _ -> false

let zrs_tests =
  [
    Alcotest.test_case "find_algorithm = oracle (random problems)" `Slow
      (fun () ->
        zrs_found := 0;
        zrs_refuted := 0;
        zrs_budget := 0;
        run
          (Proptest.property ~count:300 ~name:"zero-round search"
             ~gen:zrs_case ~print:print_zrs_case
             ~shrink:(fun c ->
               List.map
                 (fun problem -> { c with problem })
                 (Proptest.shrink_problem c.problem))
             zrs_agrees);
        Alcotest.(check bool)
          (Printf.sprintf "sanity: %d found, %d refuted, %d out of budget"
             !zrs_found !zrs_refuted !zrs_budget)
          true
          (!zrs_found >= 50 && !zrs_refuted >= 15 && !zrs_budget >= 20));
  ]

(* ------------------------------------------------------------------ *)
(* Exact solver vs its pre-compilation oracle *)

(* [Solver] against the Multiset-and-[Constr] search kept in
   [solver_oracle.ml], on random problems (2-4 labels, arities 2-3) and
   on their lifts, over cycles C_4..C_12 and random (dw, db)-biregular
   supports with at most 16 edges.  With forward checking on and off,
   [solve_stats] must return the same outcome, the same labelling and
   the same node, backtrack and prune counts as the oracle, and the
   [solver.*] counters must move by exactly those counts;
   [count_solutions] must agree on the count and the counters.  One
   case in three runs under a small random node budget, so budget stops
   are compared too. *)

module Solver = Slocal_model.Solver

type solver_case = {
  s_spec : string;
  s_problem : Problem.t;
  s_lift : bool;
  s_budget : int;
  s_limit : int;
}

let solver_support g =
  if Slocal_util.Prng.bool g then
    (Printf.sprintf "cycle:%d" (Proptest.int_range 2 6 g), (2, 2))
  else random_biregular ~max_edges:16 g

let solver_case g =
  let s_spec, (dw, db) = solver_support g in
  let s_lift = Slocal_util.Prng.bool g in
  (* A lift needs arities at most the support's degrees; a plain
     problem may miss them, leaving some nodes unconstrained. *)
  let d_white, d_black =
    if s_lift then (Proptest.int_range 2 dw g, Proptest.int_range 2 db g)
    else (Proptest.int_range 2 3 g, Proptest.int_range 2 3 g)
  in
  let s_problem = Proptest.problem ~d_white ~d_black g in
  let s_budget =
    if Slocal_util.Prng.int g 3 = 0 then Proptest.int_range 1 60 g
    else 20_000
  in
  let s_limit =
    if Slocal_util.Prng.bool g then Proptest.int_range 1 5 g else max_int
  in
  { s_spec; s_problem; s_lift; s_budget; s_limit }

let print_solver_case c =
  Printf.sprintf "support %s%s, max_nodes %d, limit %d\n%s" c.s_spec
    (if c.s_lift then " (lift)" else "")
    c.s_budget c.s_limit
    (Proptest.print_problem c.s_problem)

let solver_counters =
  List.map Telemetry.counter
    [ "solver.nodes"; "solver.backtracks"; "solver.fc_prunes" ]

(* Run [f] and return its result with the [solver.*] counter deltas. *)
let with_solver_deltas f =
  let before = List.map Telemetry.value solver_counters in
  let r = f () in
  (r, List.map2 (fun m b -> Telemetry.value m - b) solver_counters before)

let solver_found = ref 0
let solver_refuted = ref 0
let solver_budget = ref 0

let solver_agrees c =
  let support = Slocal_serve.Ops.parse_graph c.s_spec in
  let p =
    if c.s_lift then
      (Supported_local.Zero_round.lift_of_support support c.s_problem)
        .Supported_local.Lift.problem
    else c.s_problem
  in
  let same_counts (o : Solver_oracle.counters) counts =
    counts = [ o.nodes; o.backtracks; o.fc_prunes ]
  in
  let solve_agrees forward_checking =
    let expected, o =
      Solver_oracle.solve ~max_nodes:c.s_budget ~forward_checking support p
    in
    let (outcome, st), counts =
      with_solver_deltas (fun () ->
          Solver.solve_stats ~max_nodes:c.s_budget ~forward_checking support p)
    in
    (match outcome with
    | Solver.Solution _ -> incr solver_found
    | Solver.No_solution -> incr solver_refuted
    | Solver.Budget_exceeded -> incr solver_budget);
    outcome = expected
    && same_counts o counts
    && same_counts o [ st.Solver.nodes; st.Solver.backtracks; st.Solver.fc_prunes ]
    && st.Solver.budget_exhausted = (outcome = Solver.Budget_exceeded)
  in
  let count_agrees () =
    let expected, o =
      Solver_oracle.count_solutions ~max_nodes:c.s_budget ~limit:c.s_limit
        support p
    in
    let count, counts =
      with_solver_deltas (fun () ->
          Solver.count_solutions ~max_nodes:c.s_budget ~limit:c.s_limit
            support p)
    in
    count = expected && same_counts o counts
  in
  solve_agrees true && solve_agrees false && count_agrees ()

let solver_tests =
  [
    Alcotest.test_case "solve, count_solutions = oracle (random problems)"
      `Slow (fun () ->
        solver_found := 0;
        solver_refuted := 0;
        solver_budget := 0;
        run
          (Proptest.property ~count:500 ~name:"exact solver" ~gen:solver_case
             ~print:print_solver_case
             ~shrink:(fun c ->
               List.map
                 (fun s_problem -> { c with s_problem })
                 (Proptest.shrink_problem c.s_problem))
             solver_agrees);
        Alcotest.(check bool)
          (Printf.sprintf "sanity: %d found, %d refuted, %d out of budget"
             !solver_found !solver_refuted !solver_budget)
          true
          (!solver_found >= 200 && !solver_refuted >= 50 && !solver_budget >= 25));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel batch vs sequential: the pool contract on real work *)

(* [Zero_round.decide_batch ~jobs] promises results byte-identical
   to the sequential run.  Decide 200 seeded random (2,2) problems on
   a C_6 support by both routes at widths 2..4 and compare against
   jobs=1; the problem list is regenerated from the same seed per
   width, so each batch owns fresh instances. *)
let parallel_tests =
  let bipartite_cycle k =
    let g = Slocal_graph.Graph_gen.cycle (2 * k) in
    Slocal_graph.Bipartite.make g
      (Array.init (2 * k) (fun v ->
           if v mod 2 = 0 then Slocal_graph.Bipartite.White
           else Slocal_graph.Bipartite.Black))
  in
  [
    Alcotest.test_case "decide_batch parallel = sequential" `Slow (fun () ->
        let support = bipartite_cycle 3 in
        let problems () =
          let g = Slocal_util.Prng.create seed in
          List.init 200 (fun _ -> Proptest.problem ~d_white:2 ~d_black:2 g)
        in
        let decide jobs =
          Supported_local.Zero_round.decide_batch ~jobs ~max_nodes:1_000_000
            support (problems ())
        in
        let sequential = decide 1 in
        Alcotest.(check int)
          "sanity: one verdict per problem" 200
          (List.length sequential);
        List.iter
          (fun jobs ->
            if decide jobs <> sequential then
              Alcotest.fail
                (Printf.sprintf
                   "decide_batch at jobs=%d differs from the sequential run"
                   jobs))
          [ 2; 3; 4 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Allocation determinism: the sequential kernel allocates the same
   number of bytes on every run over the same seeded problems — the
   property underpinning the bench harness's 1.02x allocation gate
   (DESIGN.md, bench schema).  Each sweep regenerates the problems
   from the same seed (fresh down closures) and runs with the
   cross-invocation cache off, so every sweep performs byte-identical
   work.  One warmup sweep first: lazy global state (metric
   registries, table growth) may allocate once per process, not per
   run. *)

let alloc_determinism_tests =
  [
    Alcotest.test_case "sequential RE allocation deterministic" `Slow
      (fun () ->
        let problems () =
          let g = Slocal_util.Prng.create seed in
          List.init 50 (fun _ -> Proptest.problem ~d_white:2 ~d_black:2 g)
        in
        let alloc_of f =
          (* Minor-words delta with endpoint flushes, the same
             collection-timing-independent measurement the bench
             harness uses for alloc_b (see bench/main.ml): on OCaml
             5.1, [Gc.allocated_bytes] deltas inflate by whatever an
             in-region minor collection happens to promote. *)
          Gc.minor ();
          let m0 = (Gc.quick_stat ()).Gc.minor_words in
          f ();
          Gc.minor ();
          let m1 = (Gc.quick_stat ()).Gc.minor_words in
          int_of_float ((m1 -. m0) *. float_of_int (Sys.word_size / 8))
        in
        let sweep () =
          List.map
            (fun p ->
              alloc_of (fun () ->
                  match Re_step.re ~cache:false p with
                  | (_ : Problem.t) -> ()
                  | exception Invalid_argument _ -> ()))
            (problems ())
        in
        ignore (sweep () : int list);
        let first = sweep () and second = sweep () in
        List.iteri
          (fun i (a, b) ->
            if a <> b then
              Alcotest.fail
                (Printf.sprintf
                   "allocation differs on problem %d of the sweep: %dB vs \
                    %dB; reproduce with PROPTEST_SEED=%d"
                   i a b seed))
          (List.combine first second))
  ]

(* ------------------------------------------------------------------ *)
(* slocal.bench/1: the writer and the one strict reader *)

module BR = Slocal_analysis.Bench_report
module Json = Slocal_obs.Json

let bench_reader_tests =
  [
    Alcotest.test_case "of_json (to_json r) = Ok r" `Quick (fun () ->
        run
          (Proptest.property ~name:"bench round-trip" ~gen:Proptest.bench_report
             ~print:(fun r -> Json.to_string (BR.to_json r))
             (fun r ->
               BR.of_json (BR.to_json r) = Ok r
               && Result.bind
                    (Json.of_string (Json.to_string (BR.to_json r)))
                    BR.of_json
                  = Ok r)));
    (* Truncated and byte-mutated copies of the committed reports: the
       reader returns a report or a diagnostic, and never raises. *)
    Alcotest.test_case "corrupted reports: Ok or Error" `Quick (fun () ->
        (* Paths from the repository root, or from the build's test
           directory under [dune runtest]. *)
        let read f =
          let f = if Sys.file_exists f then f else Filename.concat ".." f in
          In_channel.with_open_bin f In_channel.input_all
        in
        let docs =
          List.map read
            [ "BENCH_baseline.json"; "test/fixtures/bench_v1_noalloc.json" ]
        in
        run
          (Proptest.property ~count:500 ~name:"bench reader total"
             ~gen:(Proptest.corrupt docs) ~print:String.escaped (fun text ->
               match Result.bind (Json.of_string text) BR.of_json with
               | Ok _ | Error _ -> true)));
  ]

(* ------------------------------------------------------------------ *)
(* slocal.request/1: the one ledger writer and its tolerant reader *)

module Ledger = Slocal_obs.Ledger

let ledger_reader_tests =
  [
    Alcotest.test_case "of_json (to_json r) = Ok r" `Quick (fun () ->
        run
          (Proptest.property ~name:"ledger round-trip" ~gen:Proptest.ledger_record
             ~print:(fun r -> Json.to_string (Ledger.to_json r))
             (fun r ->
               Ledger.of_json (Ledger.to_json r) = Ok r
               && Result.bind
                    (Json.of_string (Json.to_string (Ledger.to_json r)))
                    Ledger.of_json
                  = Ok r)));
    (* Damaged copies of the committed mixed ledger: every non-blank
       line reads as a record or counts as skipped, and the reader
       never raises. *)
    Alcotest.test_case "corrupted ledgers: records + skipped" `Quick (fun () ->
        let fixture = "test/fixtures/ledger_mixed.jsonl" in
        let fixture =
          if Sys.file_exists fixture then fixture else Filename.concat ".." fixture
        in
        let doc = In_channel.with_open_bin fixture In_channel.input_all in
        let file = Filename.temp_file "slocal_ledger" ".jsonl" in
        Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
        run
          (Proptest.property ~count:500 ~name:"ledger reader total"
             ~gen:(Proptest.corrupt_ledger doc) ~print:String.escaped
             (fun text ->
               Out_channel.with_open_bin file (fun oc ->
                   Out_channel.output_string oc text);
               let { Ledger.records; skipped } = Ledger.read_file file in
               let lines =
                 List.filter
                   (fun l -> String.trim l <> "")
                   (String.split_on_char '\n' text)
               in
               List.length records + skipped = List.length lines)));
  ]

let () =
  Alcotest.run "proptest"
    [
      ("re-differential", re_tests);
      ("constr-differential", constr_tests);
      ("relaxation-oracle", relaxation_tests);
      ("zrs-oracle", zrs_tests);
      ("solver-oracle", solver_tests);
      ("parallel-differential", parallel_tests);
      ("alloc-determinism", alloc_determinism_tests);
      ("bench-reader", bench_reader_tests);
      ("ledger-reader", ledger_reader_tests);
    ]
