(* Differential property suite: the fast kernel against the reference
   oracles, on seeded random instances (see [proptest.ml] for the
   harness).

   Two families of properties:

   - whole-step: [Re_step.re] (fast kernel, cache off) produces the
     same problem as [Re_reference.re] up to label renaming, on 200
     random problems per arity profile — including problems where both
     must reject with an empty result constraint;

   - per-query: [Constr]'s memoized membership / extendability /
     quantified-choice queries agree with the unmemoized scans in
     [Constr_reference] on random constraints and random condensed
     queries.

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

let arity_profiles = [ (2, 2); (2, 3); (3, 2); (3, 3) ]

let re_tests =
  List.map
    (fun (d_white, d_black) ->
      let name = Printf.sprintf "re fast = reference (%d,%d)" d_white d_black in
      Alcotest.test_case name `Slow (fun () ->
          Re_step.set_kernel Re_step.Fast;
          run
            (Proptest.property ~count:200 ~name
               ~gen:(Proptest.problem ~d_white ~d_black)
               ~print:Proptest.print_problem ~shrink:Proptest.shrink_problem
               agree)))
    arity_profiles

(* ------------------------------------------------------------------ *)
(* Memoized constraint queries vs the unmemoized oracle *)

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
  (* Ask everything twice: the second round must be answered from the
     memo tables with identical results. *)
  && Constr.exists_choice c.full c.constr = exists_choice c.full c.constr
  && Constr.for_all_choices_partial c.partial c.constr
     = for_all_choices_partial c.partial c.constr

let constr_tests =
  [
    Alcotest.test_case "memoized queries = oracle" `Slow (fun () ->
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
        Re_step.set_kernel Re_step.Fast;
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
(* Parallel batch vs sequential: the pool contract on real work *)

(* [Zero_round.decide_batch ~jobs] promises results byte-identical
   to the sequential run.  Decide 200 seeded random (2,2) problems on
   a C_6 support by both routes at widths 2..4 and compare against
   jobs=1; the problem list is regenerated from the same seed per
   width, so each batch owns fresh instances (and their constraint
   memo tables). *)
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
(* Parallel RE kernel vs sequential: byte-identical output AND exact
   counter totals.

   [Re_step.re ~jobs] promises (DESIGN.md §9) that the wave-parallel
   lattice descent is indistinguishable from the sequential one in
   everything but wall time: same problems (byte for byte) and the
   same merged totals for the deterministic kernel counters.  Run RE
   over 200 seeded random problems per width and compare both against
   jobs=1.  Each width regenerates the problems from the same seed
   (fresh constraint memo tables) and runs with the cross-invocation
   result cache off, so the counter deltas are the descent's own.

   Widths default to 2, 3, 4 and can be pinned from the environment:
   PROPTEST_JOBS=2 dune runtest exercises exactly width 2. *)

let parallel_widths =
  match Sys.getenv_opt "PROPTEST_JOBS" with
  | Some s ->
      (match int_of_string_opt (String.trim s) with
      | Some j when j >= 2 -> [ j ]
      | _ ->
          Printf.eprintf "proptest: ignoring bad PROPTEST_JOBS=%S\n%!" s;
          [ 2; 3; 4 ])
  | None -> [ 2; 3; 4 ]

(* The counters whose totals must merge exactly; gauges (re.labels_out
   etc.) are excluded — they merge by max and are compared through the
   byte-identical output instead — and par.* are excluded because the
   schedule owns them. *)
let kernel_counters =
  [ "re.steps"; "re.enum_nodes"; "constr.memo_hits"; "constr.memo_misses" ]

let parallel_re_tests =
  [
    Alcotest.test_case "re parallel = sequential (output + counters)" `Slow
      (fun () ->
        let problems () =
          let g = Slocal_util.Prng.create seed in
          List.init 200 (fun _ -> Proptest.problem ~d_white:2 ~d_black:2 g)
        in
        let sweep jobs =
          let before = Slocal_obs.Telemetry.snapshot () in
          let outputs =
            List.map
              (fun p ->
                match Re_step.re ~cache:false ~jobs p with
                | q -> Some (Problem.to_string q)
                | exception Invalid_argument _ -> None)
              (problems ())
          in
          let counters =
            let d =
              Slocal_obs.Telemetry.delta ~before
                ~after:(Slocal_obs.Telemetry.snapshot ())
            in
            List.map
              (fun name -> (name, Option.value ~default:0 (List.assoc_opt name d)))
              kernel_counters
          in
          (outputs, counters)
        in
        Re_step.set_kernel Re_step.Fast;
        let seq_out, seq_counters = sweep 1 in
        Alcotest.(check int)
          "sanity: one RE output per problem" 200 (List.length seq_out);
        List.iter
          (fun jobs ->
            let out, counters = sweep jobs in
            List.iteri
              (fun i (a, b) ->
                if a <> b then
                  Alcotest.fail
                    (Printf.sprintf
                       "RE output at jobs=%d differs from sequential on \
                        problem %d of the sweep; reproduce with \
                        PROPTEST_SEED=%d PROPTEST_JOBS=%d"
                       jobs i seed jobs))
              (List.combine seq_out out);
            List.iter2
              (fun (name, s) (name', p) ->
                assert (name = name');
                if s <> p then
                  Alcotest.fail
                    (Printf.sprintf
                       "counter %s at jobs=%d: %d, sequential: %d (must merge \
                        exactly); reproduce with PROPTEST_SEED=%d \
                        PROPTEST_JOBS=%d"
                       name jobs p s seed jobs))
              seq_counters counters)
          parallel_widths);
  ]

(* ------------------------------------------------------------------ *)
(* Allocation determinism: the sequential kernel allocates the same
   number of bytes on every run over the same seeded problems — the
   property underpinning the bench harness's 1.02x allocation gate
   (DESIGN.md, bench schema).  Each sweep regenerates the problems
   from the same seed (fresh constraint memo tables) and runs with the
   cross-invocation cache off, so every sweep performs byte-identical
   work.  One warmup sweep first: lazy global state (metric
   registries, table growth) may allocate once per process, not per
   run. *)

let alloc_determinism_tests =
  [
    Alcotest.test_case "sequential RE allocation deterministic" `Slow
      (fun () ->
        Re_step.set_kernel Re_step.Fast;
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

let () =
  Alcotest.run "proptest"
    [
      ("re-differential", re_tests);
      ("constr-differential", constr_tests);
      ("relaxation-oracle", relaxation_tests);
      ("parallel-differential", parallel_tests);
      ("parallel-kernel", parallel_re_tests);
      ("alloc-determinism", alloc_determinism_tests);
      ("bench-reader", bench_reader_tests);
    ]
