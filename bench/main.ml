(* Benchmark and experiment harness.

   Regenerates every figure and theorem table of the paper (see the
   experiment index in DESIGN.md):

     FIG1  — Figure 1: black diagram of Π_Δ'(x',y)
     FIG2  — Figure 2: black diagram of Π_Δ(c,β), c = 3 colors, β = 2
     FIG3  — Figure 3 / Appendix A: a maximal matching solution
     T15   — Theorem 1.5/4.1: x-maximal y-matching bound table
     T16   — Theorem 1.6/5.1: arbdefective coloring bound table
     T17   — Theorem 1.7/6.1: ruling set bound table + MIS corollary
     T13   — Theorem 1.3 / Lemma C.2: derandomization accounting
     E-LIFT  — Theorem 3.2 equivalence, exhaustively cross-validated
     E-UNSAT — lift unsolvability certificates (search + counting)
     E-FIX   — Lemma 5.4 fixed points, SO relaxed fixed point
     E-SEQ   — Lemma 4.5 / Observation 4.3 relaxation checks
     E-G     — quality of the Lemma 2.1 graph-family substitute
     E-UB    — simulated upper bounds vs the lower-bound formulas

   followed by Bechamel microbenchmarks of the computational kernels
   (RE step, lift construction, exact solver with and without forward
   checking, graph generation) including the DESIGN.md ablations.

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- tables  (experiments only)
             dune exec bench/main.exe -- micro   (microbenchmarks only)

   Machine-readable output: [--json FILE] writes a slocal.bench/1
   document with per-experiment wall-clock timings and kernel-counter
   deltas (and ns/run for the microbenchmarks); [--quick] restricts the
   experiments to the cheap CI smoke subset.  [validate FILE], [report
   BASELINE CURRENT] (markdown regression report; exit 1 when a shared
   experiment exceeds the re.enum_nodes or alloc_b gate) and [history
   FILE...] (trends over a series) read such documents back through
   Slocal_analysis.Bench_report. *)

open Slocal_formalism
module Telemetry = Slocal_obs.Telemetry
module Json = Slocal_obs.Json
module Gen = Slocal_graph.Graph_gen
module Graph = Slocal_graph.Graph
module Bipartite = Slocal_graph.Bipartite
module Girth = Slocal_graph.Girth
module Coloring = Slocal_graph.Coloring
module Independence = Slocal_graph.Independence
module Prng = Slocal_util.Prng
module Checker = Slocal_model.Checker
module Solver = Slocal_model.Solver
module Supported = Slocal_model.Supported
module Algorithms = Slocal_model.Algorithms
module Zrs = Slocal_model.Zero_round_search
module MF = Slocal_problems.Matching_family
module CF = Slocal_problems.Coloring_family
module RF = Slocal_problems.Ruling_family
module Classic = Slocal_problems.Classic
module Lift = Supported_local.Lift
module Zero_round = Supported_local.Zero_round
module Re_supported = Supported_local.Re_supported
module Derandomize = Supported_local.Derandomize
module Bounds = Supported_local.Bounds
module Counting = Supported_local.Counting
module Framework = Supported_local.Framework
module Serve = Slocal_serve.Serve

let header id title =
  Format.printf "@.----------------------------------------------------------------@.";
  Format.printf "[%s] %s@." id title;
  Format.printf "----------------------------------------------------------------@."

let bipartite_cycle k =
  Bipartite.make (Gen.cycle (2 * k))
    (Array.init (2 * k) (fun v ->
         if v mod 2 = 0 then Bipartite.White else Bipartite.Black))

(* ------------------------------------------------------------------ *)
(* FIG1 *)

let fig1 () =
  let show name p =
    Format.printf "%s:@." name;
    Format.printf "  edges: %a@."
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (fun fmt (y, x) ->
           Format.fprintf fmt "%s→%s"
             (Alphabet.name p.Problem.alphabet y)
             (Alphabet.name p.Problem.alphabet x)))
      (Diagram.edges (Diagram.black p));
    Format.printf "  right-closed label-sets:";
    List.iter
      (fun s -> Format.printf " %s" (Re_step.set_name p.Problem.alphabet s))
      (Diagram.right_closed_sets (Diagram.black p));
    Format.printf "@."
  in
  (* The generic family member reproduces Figure 1 exactly:
     Z→M, Z→P, M→X, P→O, O→X. *)
  show "Π_6(0,2) (generic member — Figure 1's diagram)" (MF.pi ~delta:6 ~x:0 ~y:2);
  (* The last problem of the sequence gains M→O (and hence O≡X merges
     one level); its label-sets are a sub-list of the paper's. *)
  show "Π_6(3,2) (last problem of the Section 4.2 sequence)"
    (MF.pi_last ~delta:6 ~y:2)

(* ------------------------------------------------------------------ *)
(* FIG2 *)

let fig2 () =
  let p = RF.pi ~delta:4 ~c:3 ~beta:2 in
  Format.printf "labels: %s@."
    (String.concat " " (Alphabet.names p.Problem.alphabet));
  Format.printf "%a@." (Diagram.pp p.Problem.alphabet) (Diagram.black p);
  Format.printf
    "(color sets ordered by inclusion towards X; U_i above the colors; \
     P_i → U_j for j < i, as in Figure 2)@."

(* ------------------------------------------------------------------ *)
(* FIG3 *)

let fig3 () =
  let mm = MF.maximal_matching ~delta:3 in
  let support = Gen.double_cover (Gen.petersen ()) in
  (match Solver.solve support mm with
  | Solver.Solution labeling ->
      let g = Bipartite.graph support in
      let m_count =
        Array.fold_left (fun a l -> if l = 0 then a + 1 else a) 0 labeling
      in
      Format.printf
        "support: double cover of Petersen (n=%d, (3,3)-biregular)@."
        (Bipartite.n support);
      Format.printf "solver found a labeling: %d M-edges of %d edges@."
        m_count (Graph.m g);
      Format.printf "formalism checker: %b, semantic checker: %b@."
        (Checker.is_solution support mm labeling)
        (MF.is_matching_solution support labeling);
      Format.printf "first white node's configuration:";
      List.iter
        (fun e ->
          Format.printf " %s" (Alphabet.name mm.Problem.alphabet labeling.(e)))
        (Graph.incident g 0);
      Format.printf "@."
  | _ -> Format.printf "unexpected: no solution@.")

(* ------------------------------------------------------------------ *)
(* T15 *)

let t15 () =
  List.iter
    (fun (x, y) ->
      Format.printf "@.x = %d, y = %d:@." x y;
      Format.printf "  %6s %6s %12s %12s %12s %12s@." "Δ'" "k" "det LB"
        "rand LB" "upper O(Δ')" "winner";
      List.iter
        (fun delta' ->
          if delta' > x + (2 * y) then begin
            let b =
              Bounds.matching ~delta:(5 * delta') ~delta' ~x ~y ~eps:1.0 ~n:1e300
            in
            let upper = Option.value b.Bounds.upper ~default:nan in
            Format.printf "  %6d %6d %12.1f %12.1f %12.1f %12s@." delta'
              (MF.sequence_length ~delta':delta' ~x ~y)
              b.Bounds.deterministic b.Bounds.randomized upper
              (if b.Bounds.deterministic > 0.3 *. upper then "tight-ish"
               else "gap")
          end)
        [ 4; 8; 16; 32; 64 ])
    [ (0, 1); (1, 1); (0, 2); (2, 2) ];
  Format.printf
    "@.shape: deterministic lower bound grows linearly in Δ' (k = ⌊(Δ'-x)/y⌋-2)@.";
  Format.printf
    "until the log_Δ n cap; the O(Δ') proposal algorithm matches it.@."

(* ------------------------------------------------------------------ *)
(* T16 *)

let t16 () =
  Format.printf "  %6s %6s %5s %4s %12s %12s %14s@." "Δ" "Δ'" "α" "c"
    "det LB" "rand LB" "upper (χ_G)";
  List.iter
    (fun (delta, delta', alpha, c) ->
      if Bounds.arbdefective_applicable ~delta ~delta' ~alpha ~c ~eps:0.25 then begin
        let b =
          Bounds.arbdefective ~delta ~delta' ~alpha ~c ~eps:0.25 ~n:1e18
        in
        Format.printf "  %6d %6d %5d %4d %12.2f %12.2f %14.2f@." delta delta'
          alpha c b.Bounds.deterministic b.Bounds.randomized
          (Option.value b.Bounds.upper ~default:nan)
      end
      else
        Format.printf "  %6d %6d %5d %4d %12s %12s %14s@." delta delta' alpha c
          "n/a" "n/a" "(α+1)c too big")
    [
      (256, 32, 0, 4);
      (256, 32, 1, 4);
      (1024, 64, 1, 8);
      (1024, 64, 3, 16);
      (4096, 128, 1, 16);
      (4096, 16, 3, 8);
    ];
  Format.printf
    "@.the bound is Ω(log_Δ n) whenever (α+1)c ≤ min{Δ', εΔ/log Δ}; the@.";
  Format.printf
    "Δ/log Δ cap is forced by the support coloring (Corollary 5.8).@."

(* ------------------------------------------------------------------ *)
(* T17 *)

let t17 () =
  Format.printf "  %4s %6s %6s %4s %4s %12s %12s %14s@." "β" "Δ" "Δ'" "α" "c"
    "det LB" "rand LB" "upper";
  List.iter
    (fun (beta, delta, delta', alpha, c) ->
      let b =
        Bounds.ruling_set ~delta ~delta' ~alpha ~c ~beta ~eps:0.5 ~cbig:1.0
          ~n:1e18
      in
      Format.printf "  %4d %6d %6d %4d %4d %12.2f %12.2f %14.2f@." beta delta
        delta' alpha c b.Bounds.deterministic b.Bounds.randomized
        (Option.value b.Bounds.upper ~default:nan))
    [
      (1, 4096, 512, 0, 1);
      (2, 4096, 512, 0, 1);
      (3, 4096, 512, 0, 1);
      (4, 4096, 512, 0, 1);
      (1, 4096, 512, 1, 2);
      (2, 4096, 512, 1, 2);
      (1, 65536, 4096, 0, 1);
      (2, 65536, 4096, 0, 1);
    ];
  Format.printf "@.the [AAPR23] MIS corollary (Δ := Δ'·log Δ', Δ' := log n/log log n):@.";
  Format.printf "  %10s %10s %10s %14s@." "n" "Δ'" "det LB" "χ_G upper";
  List.iter
    (fun e ->
      let n = 10. ** float_of_int e in
      let c = Bounds.mis_vs_chromatic ~n in
      Format.printf "  %10.0e %10.2f %10.2f %14.2f@." n c.Bounds.delta'
        c.Bounds.lower_bound c.Bounds.chromatic_upper)
    [ 6; 9; 12; 18; 24; 30 ];
  Format.printf
    "@.both columns are Θ(log n / log log n): the χ_G-round MIS algorithm \
     is optimal.@."

(* ------------------------------------------------------------------ *)
(* T13 *)

let t13 () =
  Format.printf "graphs (bound 3n²):@.";
  Format.printf "  %5s %12s %12s %12s %12s %12s@." "n" "graphs" "ids" "inputs"
    "total" "bound";
  List.iter
    (fun n ->
      let c = Derandomize.graph_instances ~n in
      Format.printf "  %5d %12.0f %12.0f %12.0f %12.0f %12.0f@." n
        c.Derandomize.log2_graphs c.Derandomize.log2_ids
        c.Derandomize.log2_inputs c.Derandomize.log2_total
        c.Derandomize.log2_bound)
    [ 2; 4; 8; 16; 32; 64 ];
  Format.printf "linear hypergraphs (Theorem C.3, bound 4n³):@.";
  Format.printf "  %5s %12s %12s %12s %12s %12s@." "n" "graphs" "ids" "inputs"
    "total" "bound";
  List.iter
    (fun n ->
      let c = Derandomize.hypergraph_instances ~n in
      Format.printf "  %5d %12.0f %12.0f %12.0f %12.0f %12.0f@." n
        c.Derandomize.log2_graphs c.Derandomize.log2_ids
        c.Derandomize.log2_inputs c.Derandomize.log2_total
        c.Derandomize.log2_bound)
    [ 2; 4; 8; 16; 32; 64 ];
  Format.printf
    "@.so D(n) ≤ R(2^{3n²}): a randomized T(n)-round algorithm yields a@.";
  Format.printf
    "deterministic one, giving the log_Δ log n randomized bounds by \
     inversion.@."

(* ------------------------------------------------------------------ *)
(* E-LIFT *)

let e_lift () =
  List.iter
    (fun k ->
      let support = bipartite_cycle k in
      let problems = Zero_round.two_label_problems () in
      let agree = ref 0 and solvable = ref 0 in
      List.iter
        (fun p ->
          let via_lift = Zero_round.solvable support p in
          let via_search =
            Zrs.exists_algorithm support p ~d_in_white:2 ~d_in_black:2
          in
          if via_lift = via_search then incr agree;
          if via_lift = Some true then incr solvable)
        problems;
      Format.printf
        "  C_%d support: %d/%d problems agree (of which %d are 0-round solvable)@."
        (2 * k) !agree (List.length problems) !solvable)
    [ 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* E-UNSAT *)

let e_unsat () =
  (* Sinkless orientation: the (4,4) vs (5,5) dichotomy, by search. *)
  let so = Classic.sinkless_orientation ~delta:3 in
  let rng = Prng.create 2024 in
  Format.printf "sinkless orientation (Δ' = 3):@.";
  List.iter
    (fun d ->
      let support = Gen.random_biregular rng ~nw:8 ~nb:8 ~dw:d ~db:d in
      match Zero_round.solvable ~max_nodes:30_000_000 support so with
      | Some b -> Format.printf "  (%d,%d)-biregular n=16: 0-round solvable = %b@." d d b
      | None -> Format.printf "  (%d,%d)-biregular n=16: undecided@." d d)
    [ 4; 5 ];
  (* Matching: the Lemma 4.7-4.9 counting certificate on generated
     double covers. *)
  Format.printf "@.x-maximal y-matching counting certificates (y = 1, Δ = 5Δ'):@.";
  Format.printf "  %4s %6s %7s %6s %8s %10s %10s %8s %10s@." "Δ'" "n" "girth"
    "target" "feasible" "P lower" "P upper" "contra" "det rnds";
  List.iter
    (fun delta' ->
      let delta = 5 * delta' in
      let cert = Gen.high_girth_low_independence rng ~n:(6 * delta) ~d:delta () in
      let support = Gen.double_cover cert.Gen.graph in
      let k = MF.sequence_length ~delta':delta' ~x:0 ~y:1 in
      match Counting.certify_matching_unsolvable support ~delta':delta' ~y:1 with
      | Some c ->
          let girth =
            match Girth.girth (Bipartite.graph support) with
            | None -> max_int
            | Some g -> g
          in
          Format.printf "  %4d %6d %7d %6d %8b %10.0f %10.0f %8b %10d@." delta'
            (Bipartite.n support) girth cert.Gen.target_girth
            cert.Gen.girth_feasible c.Counting.p_lower c.Counting.p_upper
            c.Counting.contradictory
            (Re_supported.theorem_b2 ~k ~girth)
      | None -> Format.printf "  %4d: support shape rejected@." delta')
    [ 2; 3; 4 ];
  (* Arbdefective colorings: the Corollary 5.8 chromatic certificate on
     measured graphs. *)
  Format.printf "@.arbdefective coloring chromatic certificates (Corollary 5.8):@.";
  Format.printf "  %5s %4s %4s %6s %6s %8s %14s %12s %10s@." "n" "Δ" "k"
    "girth" "target" "feasible" "independence" "χ lower" "2k < χ?";
  List.iter
    (fun (n, d, k) ->
      let cert = Gen.high_girth_low_independence rng ~n ~d () in
      let nn = Graph.n cert.Gen.graph in
      let chromatic_lower =
        Independence.chromatic_lower_of_independence ~n:nn
          ~independence:cert.Gen.independence_upper
      in
      Format.printf "  %5d %4d %4d %6s %6d %8b %10d (%s) %12d %10b@." nn d k
        (match cert.Gen.girth with None -> "∞" | Some g -> string_of_int g)
        cert.Gen.target_girth cert.Gen.girth_feasible
        cert.Gen.independence_upper
        (if cert.Gen.independence_exact then "=" else "≤")
        chromatic_lower
        (Counting.coloring_unsolvability ~n:nn ~k
           ~independence_upper:cert.Gen.independence_upper))
    [ (24, 8, 1); (32, 12, 1); (48, 16, 2); (64, 16, 2) ]

(* ------------------------------------------------------------------ *)
(* E-FIX *)

let e_fix () =
  List.iter
    (fun (delta, c) ->
      Format.printf "  RE(Π_%d(%d)) = Π_%d(%d) up to renaming: %b@." delta c
        delta c
        (Re_step.is_fixed_point (CF.pi ~delta ~c)))
    [ (2, 2); (3, 2); (3, 3); (4, 2); (4, 3) ];
  let so = Classic.sinkless_orientation ~delta:3 in
  Format.printf "  SO is a relaxation of RE(SO) ([BKK+23] fixed point): %s@."
    (match Relaxation.exists (Re_step.re so) so with
    | Some true -> "yes"
    | Some false -> "NO"
    | None -> "budget")

(* ------------------------------------------------------------------ *)
(* E-SEQ *)

let e_seq () =
  Format.printf "Lemma 4.5 — Π_Δ(x+y,y) relaxes RE(Π_Δ(x,y)):@.";
  List.iter
    (fun (delta, x, y) ->
      let p = MF.pi ~delta ~x ~y in
      let re = Re_step.re p in
      let target = MF.pi ~delta ~x:(x + y) ~y in
      Format.printf "  Δ=%d (x,y)=(%d,%d): %s@." delta x y
        (match Relaxation.exists ~max_nodes:5_000_000 re target with
        | Some true -> "verified"
        | Some false -> "FAILED"
        | None -> "budget"))
    [ (3, 0, 1); (4, 0, 1); (4, 1, 1); (4, 2, 1) ];
  Format.printf "Observation 4.3 — Π_Δ(x',y') relaxes Π_Δ(x,y) for x'≥x, y'≥y:@.";
  List.iter
    (fun ((x, y), (x', y')) ->
      let src = MF.pi ~delta:4 ~x ~y in
      let dst = MF.pi ~delta:4 ~x:x' ~y:y' in
      Format.printf "  (%d,%d) → (%d,%d): %s@." x y x' y'
        (match Relaxation.exists src dst with
        | Some true -> "verified"
        | Some false -> "FAILED"
        | None -> "budget"))
    [ ((0, 1), (1, 1)); ((0, 1), (0, 2)); ((1, 1), (2, 2)) ]

(* ------------------------------------------------------------------ *)
(* E-G *)

let e_g () =
  Format.printf "  %5s %3s %7s %6s %8s %12s %14s %16s@." "n" "d" "girth"
    "target" "feasible" "ε·log_d n" "independence" "Alon α·n·ln d/d";
  let rng = Prng.create 7 in
  List.iter
    (fun (n, d) ->
      let c = Gen.high_girth_low_independence rng ~n ~d () in
      let nn = Graph.n c.Gen.graph in
      Format.printf "  %5d %3d %7s %6d %8b %12.1f %10d (%s) %16.1f@." nn d
        (match c.Gen.girth with None -> "∞" | Some g -> string_of_int g)
        c.Gen.target_girth c.Gen.girth_feasible
        (log (float_of_int nn) /. log (float_of_int d))
        c.Gen.independence_upper
        (if c.Gen.independence_exact then "exact" else "bound")
        (Independence.upper_bound_alon ~n:nn ~delta:d ~alpha:2.0))
    [ (32, 3); (64, 3); (128, 3); (64, 4); (128, 4); (256, 4); (256, 6) ];
  Format.printf
    "@.girth stays Θ(log_d n)-sized and the measured independence tracks@.";
  Format.printf "the α·n·log d/d regime the lower bounds need.@."

(* ------------------------------------------------------------------ *)
(* E-UB *)

let e_ub () =
  let rng = Prng.create 11 in
  Format.printf "MIS (the [AAPR23] algorithm), rounds = support colors:@.";
  Format.printf "  %6s %3s %8s %8s %12s@." "n" "d" "rounds" "valid" "det LB (T17)";
  List.iter
    (fun (n, d) ->
      let support = Gen.random_regular rng ~n ~d in
      let marks = Array.init (Graph.m support) (fun _ -> Prng.int rng 100 < 80) in
      let inst = Algorithms.instance support marks in
      let in_mis, rounds = Algorithms.mis inst in
      let input, _ = Algorithms.input_graph inst in
      let lb =
        (Bounds.ruling_set ~delta:(8 * d) ~delta':d ~alpha:0 ~c:1 ~beta:1
           ~eps:0.5 ~cbig:1.0 ~n:(float_of_int n))
          .Bounds.deterministic
      in
      Format.printf "  %6d %3d %8d %8b %12.2f@." n d rounds
        (RF.is_ruling_set input ~beta:1 ~in_set:in_mis)
        lb)
    [ (64, 4); (128, 6); (256, 8); (512, 8) ];
  Format.printf "@.bipartite maximal matching (proposal algorithm):@.";
  Format.printf "  %6s %4s %8s %8s %14s@." "n" "Δ'" "rounds" "valid"
    "upper O(Δ') ref";
  List.iter
    (fun (nw, d) ->
      let support = Gen.random_biregular rng ~nw ~nb:nw ~dw:d ~db:d in
      let marks = Array.init (Bipartite.m support) (fun _ -> Prng.int rng 100 < 85) in
      let matched, rounds = Algorithms.bipartite_maximal_matching support marks in
      let g = Bipartite.graph support in
      let input = Graph.spanning_subgraph g ~keep:(fun e -> marks.(e)) in
      let input_matching =
        (* Re-index matching onto the input graph's edges. *)
        let kept = ref [] in
        Array.iteri (fun e m -> if m then kept := e :: !kept) marks;
        let kept = Array.of_list (List.rev !kept) in
        Array.map (fun e -> matched.(e)) kept
      in
      let valid =
        MF.is_x_maximal_y_matching input ~delta:(Graph.max_degree input) ~x:0
          ~y:1 ~in_matching:input_matching
      in
      Format.printf "  %6d %4d %8d %8b %14d@." (2 * nw) d rounds valid (2 * (d + 1)))
    [ (16, 4); (32, 6); (64, 8); (128, 8) ];
  Format.printf "@.class-by-class arbdefective coloring:@.";
  Format.printf "  %6s %3s %4s %4s %8s %8s@." "n" "d" "α" "c" "rounds" "valid";
  List.iter
    (fun (n, d, alpha, c) ->
      let support = Gen.random_regular rng ~n ~d in
      let inst = Algorithms.full support in
      let (colors, orientation), rounds =
        Algorithms.arbdefective_coloring inst ~alpha ~c
      in
      Format.printf "  %6d %3d %4d %4d %8d %8b@." n d alpha c rounds
        (CF.is_arbdefective_coloring support ~alpha ~c ~colors ~orientation))
    [ (64, 6, 2, 3); (128, 8, 1, 5); (128, 8, 8, 1) ];
  Format.printf
    "@.rounds used match the χ_G / O(Δ') upper-bound shapes that the \
     theorems prove optimal.@."

(* ------------------------------------------------------------------ *)
(* E-HYP *)

let e_hyp () =
  let rng = Prng.create 404 in
  Format.printf "random regular uniform linear hypergraphs:@.";
  Format.printf "  %5s %7s %5s %7s %7s@." "n" "degree" "rank" "linear" "girth";
  List.iter
    (fun (n, degree, rank) ->
      let h = Slocal_graph.Hypergraph_gen.random_regular_uniform rng ~n ~degree ~rank () in
      Format.printf "  %5d %7d %5d %7b %7s@."
        (Slocal_graph.Hypergraph.n h) degree rank
        (Slocal_graph.Hypergraph.is_linear h)
        (match Slocal_graph.Hypergraph.girth h with
        | None -> "∞"
        | Some g -> string_of_int g))
    [ (24, 3, 3); (36, 3, 3); (40, 4, 4); (60, 3, 5) ];
  Format.printf "@.sinkless orientation on hypergraph supports (Δ' = r' = 3):@.";
  let so = Classic.sinkless_orientation ~delta:3 in
  List.iter
    (fun (degree, rank) ->
      let h =
        Slocal_graph.Hypergraph_gen.random_regular_uniform rng ~n:10 ~degree
          ~rank ~require_linear:false ()
      in
      let r = Framework.analyze_hypergraph h ~last_problem:so ~k:50 in
      Format.printf "  (%d,%d)-support: %a@." degree rank Framework.pp_result r)
    [ (4, 4); (5, 5) ];
  Format.printf
    "@.the (5,5) refutation is Corollary 3.3 + Corollary B.3 with the same      counting@.dichotomy as the bipartite case.@."

(* ------------------------------------------------------------------ *)
(* E-RAND *)

let e_rand () =
  let rng = Prng.create 2025 in
  Format.printf
    "Luby's randomized MIS vs the deterministic χ_G sweep (20 trials each):@.";
  Format.printf "  %6s %3s %12s %18s %12s@." "n" "d" "sweep (det)"
    "Luby mean (rand)" "Luby max";
  List.iter
    (fun (n, d) ->
      let support = Gen.random_regular rng ~n ~d in
      let marks = Array.init (Graph.m support) (fun _ -> Prng.int rng 100 < 80) in
      let inst = Algorithms.instance support marks in
      let _, sweep_rounds = Algorithms.mis inst in
      let stats = Slocal_model.Randomized.luby_mis_stats ~seed:9 ~trials:20 inst in
      Format.printf "  %6d %3d %12d %18.1f %12d@." n d sweep_rounds
        stats.Slocal_model.Randomized.mean_rounds
        stats.Slocal_model.Randomized.max_rounds;
      assert stats.Slocal_model.Randomized.all_valid)
    [ (64, 4); (128, 6); (256, 8); (512, 12) ];
  Format.printf
    "@.randomness needs O(log n) rounds regardless of χ_G — the gap the      Lemma C.2@.lifting converts into the log_Δ log n randomized lower      bounds.@.";
  Format.printf "@.one-shot random coloring success rate (the union-bound toy):@.";
  Format.printf "  %6s %4s %14s %22s@." "n" "c" "empirical p" "log₂(1/p) vs 3n²";
  List.iter
    (fun (n, c) ->
      let g = Gen.cycle n in
      let p =
        Slocal_model.Randomized.success_probability_estimate ~seed:4
          ~trials:40000 g ~c
      in
      let bits = if p > 0. then -.log p /. log 2. else infinity in
      Format.printf "  %6d %4d %14.4f %10.1f vs %d@." n c p bits (3 * n * n))
    [ (4, 2); (6, 2); (6, 3); (10, 3) ];
  Format.printf
    "@.per-instance failure must be pushed below 2^{-3n²} before the union      bound over@.all Supported LOCAL instances (T13) leaves a working      deterministic seed.@."

(* ------------------------------------------------------------------ *)
(* E-B1 *)

let e_b1 () =
  let run name support problem =
    match
      Slocal_model.Zero_round_search.find_algorithm support problem
        ~d_in_white:2 ~d_in_black:2
    with
    | Some (Some table) ->
        let zero = Slocal_model.Zero_round_search.algorithm_of_table table in
        let one_round = { zero with Supported.rounds = 1 } in
        let grounding, black_algo =
          Supported_local.Round_step.eliminate ~support ~problem ~d_in_white:2
            ~d_in_black:2 one_round
        in
        Format.printf
          "  %s: A (T=1, white) → A* (T=0, black) for R(Π) [%d labels]: solves R(Π) = %b@."
          name
          (Alphabet.size
             grounding.Re_step.problem.Problem.alphabet)
          (Supported_local.Round_step.solves_r ~support
             ~r_problem:grounding.Re_step.problem ~d_in_white:2 ~d_in_black:2
             black_algo)
    | Some None -> Format.printf "  %s: no algorithm to eliminate@." name
    | None -> Format.printf "  %s: search budget@." name
  in
  run "2-coloring on C8" (bipartite_cycle 4) (Classic.coloring ~delta:2 ~c:2);
  run "3-coloring on C10" (bipartite_cycle 5) (Classic.coloring ~delta:2 ~c:3);
  run "matching (Δ'=2) on C8" (bipartite_cycle 4)
    (Problem.parse ~name:"mm2" ~labels:[ "M"; "O"; "P" ] ~white:"M O | P^2"
       ~black:"M [O P] | O^2");
  (* The chained step: white T=2 → black T=1 for R(Π) → white T=0 for
     RE(Π). *)
  (let support = bipartite_cycle 5 in
   let p = Classic.coloring ~delta:2 ~c:3 in
   match
     Slocal_model.Zero_round_search.find_algorithm support p ~d_in_white:2
       ~d_in_black:2
   with
   | Some (Some table) ->
       let a2 =
         {
           (Slocal_model.Zero_round_search.algorithm_of_table table) with
           Supported.rounds = 2;
         }
       in
       let g1, a1 =
         Supported_local.Round_step.eliminate ~both_full:true ~support
           ~problem:p ~d_in_white:2 ~d_in_black:2 a2
       in
       let g2, a0 =
         Supported_local.Round_step.eliminate_black ~both_full:true ~support
           ~problem:g1.Re_step.problem ~d_in_white:2 ~d_in_black:2 a1
       in
       Format.printf
         "  chained on C10: A(T=2, Π) → A*(T=1, R Π) → A**(T=0, RE Π): solves = %b, RE(Π) matches = %b@."
         (Supported_local.Round_step.solves_r_bar ~both_full:true ~support
            ~r_problem:g2.Re_step.problem ~d_in_white:2 ~d_in_black:2 a0)
         (Problem.equal_up_to_renaming g2.Re_step.problem (Re_step.re p))
   | _ -> ());
  Format.printf
    "@.the L_e collection + position-wise maximal extension of the Appendix B@.";
  Format.printf
    "proof, run literally on concrete algorithms and instance classes.@."

(* ------------------------------------------------------------------ *)
(* E-CYCLE *)

let e_cycle () =
  let col2 = Classic.coloring ~delta:2 ~c:2 in
  Format.printf "2-coloring is an RE fixed point: %b — so k is unbounded and@."
    (Re_step.is_fixed_point col2);
  Format.printf "Theorem B.2 charges (g-4)/2 rounds wherever the lift is unsolvable:@.";
  Format.printf "  %6s %12s %18s@." "cycle" "lift" "det rounds (B.2)";
  List.iter
    (fun k ->
      let support = bipartite_cycle k in
      let r = Framework.analyze support ~last_problem:col2 ~k:100000 in
      Format.printf "  %6s %12s %18s@."
        (Printf.sprintf "C_%d" (2 * k))
        (match r.Framework.certificate with
        | Framework.Unsolvable_by_search -> "unsolvable"
        | Framework.Solvable _ -> "solvable"
        | Framework.Undecided -> "budget")
        (match r.Framework.det_rounds with
        | Some d -> Printf.sprintf ">= %d" d
        | None -> "-"))
    [ 3; 4; 5; 6; 7; 8; 9 ];
  Format.printf
    "@.the whites of C_{2k} form a conflict cycle of length k: 0-round@.";
  Format.printf
    "solvable iff k is even, and on odd-k cycles the bound grows as (n-4)/4@.";
  Format.printf
    "— 2-coloring takes Θ(n) rounds even with the support graph known.@."

(* ------------------------------------------------------------------ *)
(* E-RULING *)

let e_ruling () =
  let run name g ~delta ~delta' ~k ~beta =
    let p = RF.pi ~delta:delta' ~c:k ~beta in
    let l = Lift.lift ~delta ~r:2 p in
    let inc =
      Slocal_graph.Hypergraph.incidence (Slocal_graph.Hypergraph.of_graph g)
    in
    match Solver.solve ~max_nodes:30_000_000 inc l.Lift.problem with
    | Solver.Solution labeling ->
        let inc_graph = Bipartite.graph inc in
        let half v e =
          match Graph.find_edge inc_graph v (Graph.n g + e) with
          | Some ie -> labeling.(ie)
          | None -> assert false
        in
        let st =
          ref
            (Counting.initial_ruling_state l ~graph:g ~half_labeling:half
               ~in_s:(fun _ -> true))
        in
        let size s =
          Array.fold_left (fun a b -> if b then a + 1 else a) 0 s.Counting.in_s
        in
        Format.printf "  %s: lift(Π_%d(%d,%d)) on n=%d — |S|=%d@." name delta'
          k beta (Graph.n g) (size !st);
        for _ = 1 to beta do
          st := Counting.eliminate_level ~graph:g !st;
          Format.printf "    level: k=%d β=%d valid=%b |S|=%d@." !st.Counting.k
            !st.Counting.beta
            (Counting.check_ruling_state ~graph:g !st)
            (size !st)
        done;
        if size !st > 0 then begin
          let colors = Counting.ruling_state_coloring ~graph:g !st in
          let members =
            List.filter
              (fun v -> !st.Counting.in_s.(v))
              (List.init (Graph.n g) (fun v -> v))
          in
          let sub, map = Graph.induced g members in
          let proper =
            Coloring.is_proper sub (Array.map (fun v -> colors.(v)) map)
          in
          Format.printf "    extracted coloring: proper=%b, ≤ %d colors@."
            proper (2 * !st.Counting.k)
        end
    | Solver.No_solution -> Format.printf "  %s: lift unsolvable@." name
    | Solver.Budget_exceeded -> Format.printf "  %s: solver budget@." name
  in
  run "C12, β=1" (Gen.cycle 12) ~delta:2 ~delta':2 ~k:1 ~beta:1;
  run "C8, β=2" (Gen.cycle 8) ~delta:2 ~delta':2 ~k:1 ~beta:2;
  run "Petersen, Δ=3>Δ'=2" (Gen.petersen ()) ~delta:3 ~delta':2 ~k:1 ~beta:1;
  Format.printf
    "@.each level: Type-1 nodes dropped, Type-2 shifted to a fresh color      block,@.pointers peeled; the terminal state feeds Lemma 5.7's coloring      extraction.@."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks *)

let micro () =
  header "MICRO" "Bechamel microbenchmarks (time per run)";
  let open Bechamel in
  let mm3 =
    Problem.parse ~name:"mm3" ~labels:[ "M"; "O"; "P" ] ~white:"M O^2 | P^3"
      ~black:"M [O P]^2 | O^3"
  in
  let pi401 = MF.pi ~delta:4 ~x:0 ~y:1 in
  let pi32 = CF.pi ~delta:3 ~c:2 in
  let pi_last41 = MF.pi_last ~delta:4 ~y:1 in
  let ruling321 = RF.pi ~delta:3 ~c:2 ~beta:1 in
  let c6 = bipartite_cycle 3 and c10 = bipartite_cycle 5 in
  let coloring3 = Classic.coloring ~delta:2 ~c:3 in
  let so = Classic.sinkless_orientation ~delta:3 in
  let so_lift = Lift.lift ~delta:4 ~r:4 so in
  let rng0 = Prng.create 99 in
  let so_support = Gen.random_biregular rng0 ~nw:6 ~nb:6 ~dw:4 ~db:4 in
  let tests =
    [
      (* B-RE: the round elimination step, by problem size.  Fast
         kernel with the cross-invocation cache disabled, so the
         lattice search itself is measured, next to the bottom-up
         reference kernel on the same problems. *)
      Test.make ~name:"re_step/mm3"
        (Staged.stage (fun () -> Re_step.re ~cache:false mm3));
      Test.make ~name:"re_step/mm3-reference"
        (Staged.stage (fun () -> Re_reference.re mm3));
      Test.make ~name:"re_step/pi_4(0,1)"
        (Staged.stage (fun () -> Re_step.re ~cache:false pi401));
      Test.make ~name:"re_step/pi_4(0,1)-reference"
        (Staged.stage (fun () -> Re_reference.re pi401));
      Test.make ~name:"re_step/pi_3(2)"
        (Staged.stage (fun () -> Re_step.re ~cache:false pi32));
      Test.make ~name:"re_step/pi_3(2)-reference"
        (Staged.stage (fun () -> Re_reference.re pi32));
      (* Ablation: diagram-based candidate pruning vs all subsets. *)
      Test.make ~name:"re_step/pruned-candidates"
        (Staged.stage (fun () ->
             let d = Diagram.black mm3 in
             let candidates = Diagram.right_closed_sets d in
             Re_step.maximal_good_configs ~candidates ~arity:3 mm3.Problem.black));
      Test.make ~name:"re_step/naive-candidates"
        (Staged.stage (fun () ->
             let all =
               Slocal_util.Bitset.nonempty_subsets (Slocal_util.Bitset.full 3)
             in
             Re_step.maximal_good_configs ~candidates:all ~arity:3
               mm3.Problem.black));
      (* B-LIFT: lift construction vs support degree. *)
      Test.make ~name:"lift/pi_last(4,1)->6,6"
        (Staged.stage (fun () -> Lift.lift ~delta:6 ~r:6 pi_last41));
      Test.make ~name:"lift/pi_last(4,1)->8,8"
        (Staged.stage (fun () -> Lift.lift ~delta:8 ~r:8 pi_last41));
      Test.make ~name:"lift/ruling(3,2,1)->6,2"
        (Staged.stage (fun () -> Lift.lift ~delta:6 ~r:2 ruling321));
      (* B-SOLVE: the exact solver, forward checking ablation. *)
      Test.make ~name:"solve/3col-C6-fc"
        (Staged.stage (fun () -> Solver.solve c6 coloring3));
      Test.make ~name:"solve/3col-C6-plain"
        (Staged.stage (fun () ->
             Solver.solve ~forward_checking:false c6 coloring3));
      Test.make ~name:"solve/3col-C10-fc"
        (Staged.stage (fun () -> Solver.solve c10 coloring3));
      Test.make ~name:"solve/so-lift-(4,4)"
        (Staged.stage (fun () -> Solver.solve so_support so_lift.Lift.problem));
      (* Unsatisfiable instance: forward checking's payoff. *)
      Test.make ~name:"solve/2col-C10-unsat-fc"
        (Staged.stage
           (let col2 = Classic.coloring ~delta:2 ~c:2 in
            fun () -> Solver.solve c10 col2));
      Test.make ~name:"solve/2col-C10-unsat-plain"
        (Staged.stage
           (let col2 = Classic.coloring ~delta:2 ~c:2 in
            fun () -> Solver.solve ~forward_checking:false c10 col2));
      (* B-GEN: graph generation and certification. *)
      Test.make ~name:"graph/random-regular-256-4"
        (Staged.stage (fun () ->
             let rng = Prng.create 5 in
             Gen.random_regular rng ~n:256 ~d:4));
      Test.make ~name:"graph/girth-256-4"
        (Staged.stage
           (let rng = Prng.create 5 in
            let g = Gen.random_regular rng ~n:256 ~d:4 in
            fun () -> Girth.girth g));
      Test.make ~name:"graph/high-girth-64-3"
        (Staged.stage (fun () ->
             let rng = Prng.create 5 in
             Gen.high_girth_low_independence rng ~n:64 ~d:3 ()));
      Test.make ~name:"graph/independence-exact-24"
        (Staged.stage
           (let rng = Prng.create 9 in
            let g = Gen.random_regular rng ~n:24 ~d:3 in
            fun () -> Independence.exact g));
      (* B-SERVE: warm-daemon request handling — one JSONL line through
         [Serve.handle_line] on a state whose RE cache already holds the
         problem, so this measures protocol parse + request window +
         cache-hit RE + response serialization, the steady-state cost
         of a request against a long-lived [slocal serve]. *)
      Test.make ~name:"serve/handle-re-warm"
        (Staged.stage
           (let st = Serve.create () in
            let line = {|{"op":"re","problem":"mm:3"}|} in
            let _warm = Serve.handle_line st line in
            fun () -> Serve.handle_line st line));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = ref [] in
  Format.printf "  %-34s %14s@." "benchmark" "time/run";
  List.iter
    (fun test ->
      List.iter
        (fun (t : Test.Elt.t) ->
          let raw = Benchmark.run cfg [ instance ] t in
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              let pretty =
                if ns > 1e9 then Printf.sprintf "%8.2f  s" (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%8.2f µs" (ns /. 1e3)
                else Printf.sprintf "%8.0f ns" ns
              in
              results := (Test.Elt.name t, ns) :: !results;
              Format.printf "  %-34s %14s@." (Test.Elt.name t) pretty
          | _ -> Format.printf "  %-34s %14s@." (Test.Elt.name t) "n/a")
        (Test.elements test))
    tests;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* E-SCALE *)

(* Threads-scaling over the real kernels, the rows CI archives as an
   artifact: the full E-LIFT agreement workload (both decision routes
   per problem, [Zero_round.decide_batch]) and an RE sequence
   ([Sequence.iterate_re], whose per-step lattice descents fan out
   wave by wave) at pool widths 1, 2 and 4.  Each row asserts the
   results byte-identical to the width-1 run; the experiment stays
   out of --quick and has no baseline entry, so the
   honest single-core wall column (speedup materializes only on
   multi-core machines) never trips the regression gate. *)
let e_scale () =
  let widths = [ 1; 2; 4 ] in
  let row jobs wall base_wall =
    Format.printf "  %4d %12s %8s@." jobs
      (Format.asprintf "%a" Telemetry.pp_duration wall)
      (if jobs = 1 then "1.00x"
       else
         Printf.sprintf "%.2fx"
           (Int64.to_float base_wall /. Int64.to_float (Int64.max 1L wall)))
  in
  let scale title run check_equal =
    Format.printf "%s by pool width:@." title;
    Format.printf "  %4s %12s %8s@." "jobs" "wall" "speedup";
    let baseline = ref None and base_wall = ref 0L in
    List.iter
      (fun jobs ->
        let t0 = Telemetry.now_ns () in
        let results = run jobs in
        let wall = Int64.sub (Telemetry.now_ns ()) t0 in
        (match !baseline with
        | None ->
            baseline := Some results;
            base_wall := wall
        | Some b ->
            if not (check_equal b results) then
              failwith
                (Printf.sprintf "E-SCALE: %s at jobs=%d differs from \
                                 sequential" title jobs));
        row jobs wall !base_wall)
      widths;
    Format.printf "  results identical across widths: true@."
  in
  let support = bipartite_cycle 3 in
  scale "E-LIFT decide_batch (49 problems x 2 routes, C_6 support)"
    (fun jobs ->
      (* Fresh problems per width: each task owns its memo tables. *)
      Zero_round.decide_batch ~jobs support (Zero_round.two_label_problems ()))
    (fun a b -> a = b);
  scale "E-SEQ iterate_re (mm:3, 2 steps)"
    (fun jobs ->
      (* Cold RE cache per width, or widths > 1 would only replay
         cached results. *)
      Re_step.clear_cache ();
      List.map Problem.to_string
        (Sequence.iterate_re ~jobs (MF.maximal_matching ~delta:3) ~steps:2))
    (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* Experiment registry, machine-readable output, and the driver.

   Each experiment runs bracketed by a wall-clock reading and a
   telemetry snapshot; [--json FILE] serialises the per-experiment
   timings and kernel-counter deltas as a slocal.bench/1 report
   (Slocal_analysis.Bench_report, documented in DESIGN.md). *)

module BR = Slocal_analysis.Bench_report

let all_experiments =
  [
    ("FIG1", "Black diagram of the matching family (paper Figure 1)", fig1);
    ( "FIG2",
      "Black diagram of Π_Δ(c,β) with 3 colors, β = 2 (paper Figure 2)",
      fig2 );
    ( "FIG3",
      "A maximal matching solution in the black-white formalism (Figure 3)",
      fig3 );
    ("T15", "Theorem 1.5/4.1: x-maximal y-matching bounds (Δ = 5Δ', ε = 1)", t15);
    ("T16", "Theorem 1.6/5.1: α-arbdefective c-coloring bounds (ε = 0.25)", t16);
    ("T17", "Theorem 1.7/6.1: arbdefective colored ruling set bounds", t17);
    ("T13", "Theorem 1.3 / Lemma C.2: derandomization accounting (log₂)", t13);
    ( "E-LIFT",
      "Theorem 3.2: lift-based decision vs exhaustive 0-round search",
      e_lift );
    ( "E-UNSAT",
      "Lift unsolvability: exact search and counting certificates",
      e_unsat );
    ("E-FIX", "Lemma 5.4 fixed points and the SO relaxed fixed point", e_fix);
    ( "E-SEQ",
      "Lemma 4.5 and Observation 4.3: the matching lower-bound sequence",
      e_seq );
    ("E-G", "The Lemma 2.1 substitute: measured girth and independence", e_g);
    ("E-UB", "Simulated upper bounds vs the lower-bound formulas", e_ub);
    ( "E-HYP",
      "Corollaries 3.3/3.5/B.3: the hypergraph track via incidence graphs",
      e_hyp );
    ("E-RAND", "Appendix C: randomized baselines vs the deterministic sweep", e_rand);
    ( "E-CYCLE",
      "A complete mini lower bound: 2-coloring needs Θ(n) rounds on cycles",
      e_cycle );
    ( "E-RULING",
      "The Lemma 6.6 recursion, executed on solver-found solutions",
      e_ruling );
    ( "E-B1",
      "Lemma B.1, executable: one round elimination step on algorithms",
      e_b1 );
    ( "E-SCALE",
      "Threads scaling of the real kernels: E-LIFT decide_batch and E-SEQ \
       iterate_re at widths 1/2/4",
      e_scale );
  ]

(* The CI smoke subset: cheap experiments only (pure tables, diagrams,
   and the small solver instances). *)
let quick_ids =
  [
    "FIG1"; "FIG2"; "FIG3"; "T15"; "T16"; "T17"; "T13"; "E-UNSAT"; "E-FIX"; "E-G";
    "E-CYCLE";
  ]

let c_experiments = Telemetry.counter "bench.experiments"

let run_experiment (id, title, f) =
  header id title;
  Telemetry.incr c_experiments;
  (* Start from a cold RE cache so each experiment's counters are
     self-contained: comparable across runs regardless of which other
     experiments ran before (e.g. full tables vs the --quick subset).
     [clear_cache] also zeroes the re.cache_* counters, which is what
     the per-experiment delta below wants: the [before] snapshot is
     taken after the clear.  The same cold start makes [alloc_b]
     deterministic per experiment, which is what the tight alloc gate
     stands on.

     [alloc_b] is the [minor_words] delta (in bytes) with a forced
     minor collection at both endpoints.  Not [Gc.allocated_bytes]:
     on this runtime (OCaml 5.1) words promoted out of the minor heap
     are added to [major_words] without being counted in
     [promoted_words], so allocated-bytes deltas inflate by however
     much live data each in-region minor collection happens to
     promote — which depends on where the young generation's phase
     landed, not on the experiment.  The minor-words delta counts
     every minor-heap allocation exactly once regardless of
     collection timing; the endpoint [Gc.minor] flushes fold the
     still-young tail into the counter. *)
  Re_step.clear_cache ();
  let before = Telemetry.snapshot () in
  Gc.minor ();
  let q0 = Gc.quick_stat () in
  let t0 = Telemetry.now_ns () in
  f ();
  let t1 = Telemetry.now_ns () in
  Gc.minor ();
  let q1 = Gc.quick_stat () in
  let alloc_b =
    int_of_float
      ((q1.Gc.minor_words -. q0.Gc.minor_words)
      *. float_of_int (Sys.word_size / 8))
  in
  let counters = Telemetry.delta ~before ~after:(Telemetry.snapshot ()) in
  {
    BR.id;
    title;
    wall_ns = Int64.to_int (Int64.sub t1 t0);
    alloc_b = Some alloc_b;
    minor_n = Some (q1.Gc.minor_collections - q0.Gc.minor_collections);
    major_n = Some (q1.Gc.major_collections - q0.Gc.major_collections);
    counters;
  }

let () =
  let json_file = ref None
  and quick = ref false
  and only = ref []
  and positional = ref [] in
  let usage msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | [ "--json" ] -> usage "--json needs a FILE argument"
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--only" :: id :: rest ->
        if not (List.exists (fun (i, _, _) -> i = id) all_experiments) then
          usage
            (Printf.sprintf "--only %s: unknown experiment id (known: %s)" id
               (String.concat ", "
                  (List.map (fun (i, _, _) -> i) all_experiments)));
        only := id :: !only;
        parse rest
    | [ "--only" ] -> usage "--only needs an experiment ID argument"
    | arg :: rest ->
        positional := arg :: !positional;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.rev !positional with
  | [ "validate"; file ] -> exit (BR.validate file)
  | "validate" :: _ -> usage "validate needs one FILE argument"
  | [ "report"; baseline; current ] -> exit (BR.report baseline current)
  | "report" :: _ -> usage "report needs BASELINE and CURRENT file arguments"
  | "history" :: (_ :: _ as files) -> exit (BR.history files)
  | [ "history" ] -> usage "history needs at least one FILE argument"
  | ([] | [ ("tables" | "micro" | "all") ]) as positional ->
      let mode = match positional with [] -> "all" | m :: _ -> m in
      (* Open the report before any experiment runs, so an unwritable
         path fails in milliseconds rather than after the whole run. *)
      let json_out =
        Option.map
          (fun file ->
            match open_out file with
            | oc -> (file, oc)
            | exception Sys_error msg ->
                usage (Printf.sprintf "cannot write %s: %s" file msg))
          !json_file
      in
      (* A bench run is a kernel-facing invocation like any other: one
         slocal.run/1 ledger record per harness execution. *)
      Slocal_obs.Ledger.begin_run ~argv:(Array.to_list Sys.argv);
      Format.printf "Supported LOCAL lower bounds — experiment harness@.";
      let selected =
        if !only <> [] then
          List.filter (fun (id, _, _) -> List.mem id !only) all_experiments
        else if !quick then
          List.filter (fun (id, _, _) -> List.mem id quick_ids) all_experiments
        else all_experiments
      in
      let experiments, benchmarks =
        match mode with
        | "tables" -> (List.map run_experiment selected, [])
        | "micro" -> ([], micro ())
        | _ -> (List.map run_experiment selected, micro ())
      in
      (match json_out with
      | None -> ()
      | Some (file, oc) ->
          output_string oc
            (Json.to_string
               (BR.to_json { mode; quick = !quick; experiments; benchmarks }));
          output_char oc '\n';
          close_out oc;
          Format.printf "@.wrote %s@." file;
          Slocal_obs.Ledger.note_artifact ~kind:"bench" file);
      Slocal_obs.Ledger.finish_run ~outcome:"ok";
      Format.printf "@.done.@."
  | mode :: _ when not (List.mem mode [ "tables"; "micro"; "all" ]) ->
      usage
        (Printf.sprintf
           "unknown mode %S (modes: tables | micro | all; subcommands: \
            validate, report, history)"
           mode)
  | _ :: extra ->
      usage ("unexpected argument " ^ String.concat " " extra)
