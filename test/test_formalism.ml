(* Tests for the black-white formalism: alphabets, the condensed-syntax
   parser, constraint semantics, strength diagrams (pinned to Appendix
   A), relaxations, and the round elimination operator. *)

module Alphabet = Slocal_formalism.Alphabet
module Constr = Slocal_formalism.Constr
module Problem = Slocal_formalism.Problem
module Diagram = Slocal_formalism.Diagram
module Relaxation = Slocal_formalism.Relaxation
module Re_step = Slocal_formalism.Re_step
module Multiset = Slocal_util.Multiset
module Bitset = Slocal_util.Bitset

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* The Appendix A running example: maximal matching with Delta = 3. *)
let mm3 =
  Problem.parse ~name:"mm3" ~labels:[ "M"; "O"; "P" ] ~white:"M O^2 | P^3"
    ~black:"M [O P]^2 | O^3"

let m = 0
and o = 1
and p = 2

(* ------------------------------------------------------------------ *)
(* Alphabet *)

let test_alphabet () =
  let a = Alphabet.of_names [ "M"; "O"; "P" ] in
  check int_t "size" 3 (Alphabet.size a);
  check Alcotest.string "name" "O" (Alphabet.name a 1);
  check (Alcotest.option int_t) "find" (Some 2) (Alphabet.find a "P");
  check (Alcotest.option int_t) "find missing" None (Alphabet.find a "Q");
  check bool_t "mem" true (Alphabet.mem a "M")

let test_alphabet_rejects () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Alphabet.of_names: duplicate label \"A\"") (fun () ->
      ignore (Alphabet.of_names [ "A"; "A" ]));
  check bool_t "bracket invalid" false (Alphabet.valid_name "A[");
  check bool_t "space invalid" false (Alphabet.valid_name "A B");
  check bool_t "empty invalid" false (Alphabet.valid_name "");
  check bool_t "plain ok" true (Alphabet.valid_name "P_1")

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_expands () =
  check int_t "white configs" 2 (Constr.size mm3.Problem.white);
  (* M [O P]^2 expands to {MOO, MOP, MPP}. *)
  check int_t "black configs" 4 (Constr.size mm3.Problem.black);
  check bool_t "MOP present" true
    (Constr.mem (Multiset.of_list [ m; o; p ]) mm3.Problem.black);
  check bool_t "PPP absent" false
    (Constr.mem (Multiset.of_list [ p; p; p ]) mm3.Problem.black)

let test_parse_exponent_zero () =
  let p' =
    Problem.parse ~name:"t" ~labels:[ "A"; "B" ] ~white:"A^0 B^2" ~black:"A B"
  in
  check int_t "white arity" 2 (Problem.d_white p');
  check bool_t "BB in white" true
    (Constr.mem (Multiset.of_list [ 1; 1 ]) p'.Problem.white)

let test_parse_newline_separator () =
  let p' =
    Problem.parse ~name:"t" ~labels:[ "A"; "B" ] ~white:"A A\nB B" ~black:"A B"
  in
  check int_t "two configs" 2 (Constr.size p'.Problem.white)

let test_parse_errors () =
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Problem.parse: unknown label \"Q\"") (fun () ->
      ignore (Problem.parse ~name:"t" ~labels:[ "A" ] ~white:"Q" ~black:"A"));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Problem.parse: white configurations of different sizes")
    (fun () ->
      ignore
        (Problem.parse ~name:"t" ~labels:[ "A" ] ~white:"A | A A" ~black:"A"))

let test_of_string () =
  let text = Problem.to_string mm3 in
  let reparsed = Problem.of_string text in
  check bool_t "of_string/to_string round-trip" true (Problem.equal mm3 reparsed);
  check Alcotest.string "name preserved" "mm3" reparsed.Problem.name;
  let with_comments =
    "# a comment\nproblem t\nlabels: A B\nwhite:\n  A [A B]\nblack:\n  B B\n"
  in
  let p' = Problem.of_string with_comments in
  check int_t "condensed syntax in document" 2 (Constr.size p'.Problem.white);
  Alcotest.check_raises "missing labels"
    (Invalid_argument "Problem.of_string: missing labels: line") (fun () ->
      ignore (Problem.of_string "problem t\nwhite:\n A\nblack:\n A\n"))

let test_to_string_roundtrip () =
  let reparsed =
    Problem.parse ~name:"mm3'" ~labels:[ "M"; "O"; "P" ]
      ~white:"M O O | P P P" ~black:"M O O | M O P | M P P | O O O"
  in
  check bool_t "same constraints" true (Problem.equal mm3 reparsed);
  check bool_t "to_string nonempty" true (String.length (Problem.to_string mm3) > 0)

(* ------------------------------------------------------------------ *)
(* Constr semantics *)

let test_constr_extendable () =
  let c = mm3.Problem.black in
  check bool_t "partial MP extendable" true
    (Constr.extendable (Multiset.of_list [ m; p ]) c);
  check bool_t "partial PP extendable" true
    (Constr.extendable (Multiset.of_list [ p; p ]) c);
  check bool_t "PPP not a config" false
    (Constr.extendable (Multiset.of_list [ p; p; p ]) c);
  check bool_t "MM not extendable" false
    (Constr.extendable (Multiset.of_list [ m; m ]) c)

let test_constr_choices () =
  let c = mm3.Problem.black in
  check bool_t "for_all over condensed black" true
    (Constr.for_all_choices [ [ m ]; [ o; p ]; [ o; p ] ] c);
  check bool_t "exists O^3" true (Constr.exists_choice [ [ o ]; [ o ]; [ o; p ] ] c);
  check bool_t "not all choices" false
    (Constr.for_all_choices [ [ m; p ]; [ o; p ]; [ o; p ] ] c);
  check bool_t "exists fails" false (Constr.exists_choice [ [ p ]; [ p ]; [ p ] ] c)

let test_constr_vacuous () =
  let c = mm3.Problem.black in
  check bool_t "empty position set: for_all vacuous" true
    (Constr.for_all_choices [ []; [ o ]; [ o ] ] c);
  (* The pick M, M is not extendable, but no full pick exists to
     violate the constraint: still vacuous. *)
  check bool_t "empty set after a dead pick: for_all vacuous" true
    (Constr.for_all_choices [ [ m ]; [ m ]; [] ] c);
  check bool_t "empty set after a dead pick: partial for_all vacuous" true
    (Constr.for_all_choices_partial [ [ m ]; [ m ]; [] ] c);
  check bool_t "empty position set: exists false" false
    (Constr.exists_choice [ []; [ o ]; [ o ] ] c)

let test_constr_map_labels () =
  let c = Constr.make ~arity:2 [ Multiset.of_list [ 0; 1 ] ] in
  let c' = Constr.map_labels (fun l -> 1 - l) c in
  check bool_t "mapped" true (Constr.mem (Multiset.of_list [ 0; 1 ]) c')

(* ------------------------------------------------------------------ *)
(* Diagram, pinned to Appendix A *)

let test_diagram_appendix_a () =
  let d = Diagram.black mm3 in
  (* "The black diagram of the problem contains only the directed edge
     (P, O)." *)
  check bool_t "O stronger than P" true (Diagram.stronger d o p);
  check bool_t "P not stronger than O" false (Diagram.stronger d p o);
  check bool_t "M incomparable with O" false
    (Diagram.stronger d m o || Diagram.stronger d o m);
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "reduced edges" [ (p, o) ] (Diagram.edges d)

let test_diagram_reflexive () =
  let d = Diagram.black mm3 in
  List.iter
    (fun l -> check bool_t "reflexive" true (Diagram.stronger d l l))
    [ m; o; p ]

let test_right_closed_sets () =
  let d = Diagram.black mm3 in
  (* Closed sets over {M,O,P} with P -> O: {M} {O} {MO} {OP} {MOP}. *)
  check int_t "count" 5 (List.length (Diagram.right_closed_sets d));
  check bool_t "P alone not closed" false
    (Diagram.is_right_closed d (Bitset.of_list [ p ]));
  check bool_t "OP closed" true (Diagram.is_right_closed d (Bitset.of_list [ o; p ]));
  check bool_t "closure adds O" true
    (Bitset.equal
       (Diagram.right_closure d (Bitset.of_list [ p ]))
       (Bitset.of_list [ o; p ]))

let test_diagram_equivalent_labels () =
  let p' =
    Problem.parse ~name:"chain" ~labels:[ "A"; "B"; "C" ]
      ~white:"A A | A B | A C | B B | B C | C C"
      ~black:"A A | A B | A C | B B | B C | C C"
  in
  let d = Diagram.black p' in
  check bool_t "all equivalent" true
    (Diagram.stronger d 0 2 && Diagram.stronger d 2 0)

(* ------------------------------------------------------------------ *)
(* Relaxation *)

let test_relaxation_reflexive () =
  check (Alcotest.option bool_t) "problem relaxes itself" (Some true)
    (Relaxation.exists mm3 mm3)

let test_relaxation_label_map () =
  check bool_t "identity map" true
    (Relaxation.check_label_map ~f:(fun l -> l) mm3 mm3)

let test_relaxation_strictly_weaker () =
  let top =
    Problem.parse ~name:"top" ~labels:[ "M"; "O"; "P" ] ~white:"[M O P]^3"
      ~black:"[M O P]^3"
  in
  check (Alcotest.option bool_t) "mm3 -> top" (Some true)
    (Relaxation.exists mm3 top);
  check (Alcotest.option bool_t) "top -> mm3 fails" (Some false)
    (Relaxation.exists top mm3)

let test_relaxation_incompatible () =
  (* The free problem cannot be relaxed into 2-coloring: whatever the
     white map does, some source black configuration has both its
     labels mapped to the same color. *)
  let free =
    Problem.parse ~name:"free" ~labels:[ "A"; "B" ] ~white:"[A B]^2"
      ~black:"[A B]^2"
  in
  let two_col =
    Problem.parse ~name:"2col" ~labels:[ "A"; "B" ] ~white:"A A | B B"
      ~black:"A B"
  in
  check (Alcotest.option bool_t) "cannot relax" (Some false)
    (Relaxation.exists free two_col);
  (* Surprising but correct direction: mapping every white tuple to a
     single color does relax 2-coloring into the monochrome problem. *)
  let monochrome =
    Problem.parse ~name:"mono" ~labels:[ "A"; "B" ] ~white:"A A | B B"
      ~black:"A A | B B"
  in
  check (Alcotest.option bool_t) "monochrome relaxes 2-coloring" (Some true)
    (Relaxation.exists two_col monochrome)

let test_relaxation_witness () =
  match Relaxation.witness mm3 mm3 with
  | None -> Alcotest.fail "budget exceeded on tiny instance"
  | Some assignment ->
      check int_t "one image per white config" 2 (List.length assignment);
      List.iter
        (fun (cfg, tuple) ->
          check int_t "image arity" (Multiset.size cfg) (List.length tuple))
        assignment

(* ------------------------------------------------------------------ *)
(* Round elimination *)

let test_r_black_of_mm3 () =
  (* Known round eliminator output: R(matching) black constraint is
     {M}{OP}{OP} and {O}{O}{MO}. *)
  let g = Re_step.r_black mm3 in
  let prob = g.Re_step.problem in
  check int_t "black configs" 2 (Constr.size prob.Problem.black);
  check int_t "labels" 4 (Alphabet.size prob.Problem.alphabet);
  let meanings = Array.to_list g.Re_step.meaning |> List.map Bitset.to_list in
  check bool_t "label-sets are the expected ones" true
    (List.sort compare meanings
    = List.sort compare [ [ m ]; [ o ]; [ m; o ]; [ o; p ] ])

let test_re_arities () =
  let re = Re_step.re mm3 in
  check int_t "white arity preserved" 3 (Problem.d_white re);
  check int_t "black arity preserved" 3 (Problem.d_black re)

let test_re_meanings_right_closed () =
  let g = Re_step.r_black mm3 in
  let d = Diagram.black mm3 in
  Array.iter
    (fun s -> check bool_t "meaning right-closed" true (Diagram.is_right_closed d s))
    g.Re_step.meaning

let test_maximal_good_configs () =
  let d = Diagram.black mm3 in
  let candidates = Diagram.right_closed_sets d in
  let maxi = Re_step.maximal_good_configs ~candidates ~arity:3 mm3.Problem.black in
  check int_t "two maximal configs" 2 (List.length maxi);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            check bool_t "not pointwise dominated" false
              (List.for_all2 Bitset.subset a b))
        maxi)
    maxi

let test_mm3_not_fixed_point () =
  check bool_t "matching is not an RE fixed point" false
    (Re_step.is_fixed_point mm3)

let test_sinkless_fixed_point () =
  (* Sinkless orientation is a fixed point modulo relaxation: SO is a
     relaxation of RE(SO), so SO, SO, SO, ... is a lower-bound sequence
     of unbounded length ([BKK+23]). *)
  let so =
    Problem.parse ~name:"so3" ~labels:[ "O"; "I" ] ~white:"O [O I]^2"
      ~black:"I [I O]^2"
  in
  check (Alcotest.option bool_t) "SO relaxes RE(SO)" (Some true)
    (Relaxation.exists (Re_step.re so) so)

let test_equal_up_to_renaming () =
  let renamed =
    Problem.parse ~name:"mm3-renamed" ~labels:[ "P"; "O"; "M" ]
      ~white:"M O^2 | P^3" ~black:"M [O P]^2 | O^3"
  in
  check bool_t "renaming detected" true (Problem.equal_up_to_renaming mm3 renamed);
  check bool_t "structural equality fails" false (Problem.equal mm3 renamed);
  let different =
    Problem.parse ~name:"other" ~labels:[ "M"; "O"; "P" ] ~white:"M O^2 | P^3"
      ~black:"M [O P]^2 | P^3"
  in
  check bool_t "different problem" false (Problem.equal_up_to_renaming mm3 different)

let test_swap_sides () =
  let s = Problem.swap_sides mm3 in
  check bool_t "white is old black" true (Constr.equal s.Problem.white mm3.Problem.black);
  check bool_t "black is old white" true (Constr.equal s.Problem.black mm3.Problem.white)


(* ------------------------------------------------------------------ *)
(* Sequence module and the R̄ direction *)

module Sequence = Slocal_formalism.Sequence

let test_r_white_meanings () =
  (* R̄'s meanings are right-closed w.r.t. the WHITE diagram. *)
  let g = Re_step.r_white mm3 in
  let d = Diagram.white mm3 in
  Array.iter
    (fun s -> check bool_t "white-right-closed" true (Diagram.is_right_closed d s))
    g.Re_step.meaning

let test_re_is_composition () =
  (* RE(Π) is literally R̄ applied to R(Π). *)
  let step1 = Re_step.r_black mm3 in
  let step2 = Re_step.r_white step1.Re_step.problem in
  check bool_t "composition" true
    (Problem.equal_up_to_renaming step2.Re_step.problem (Re_step.re mm3))

let test_sequence_empty_and_singleton () =
  check int_t "no steps on empty" 0 (List.length (Sequence.check []));
  check int_t "no steps on singleton" 0 (List.length (Sequence.check [ mm3 ]));
  check (Alcotest.option bool_t) "vacuously a sequence" (Some true)
    (Sequence.is_lower_bound_sequence [ mm3 ])

(* ------------------------------------------------------------------ *)
(* Golden RE regressions: label and configuration counts of [R] and
   [RE] on the Section 4–6 problem families, pinned to the values the
   seed implementation produced.  A kernel change that alters any of
   these numbers changed the operator, not just its speed. *)

module Re_reference = Slocal_formalism.Re_reference

let golden_cases =
  (* spec, (labels, white, black) after R, same after RE *)
  [
    ("matching:4:0:1", (6, 63, 4), (9, 6, 231));
    ("matching:4:1:1", (6, 66, 4), (9, 6, 256));
    ("mm:3", (4, 13, 2), (6, 3, 31));
    ("arb:3:2", (4, 8, 2), (4, 3, 5));
    ("arb:4:3", (8, 117, 4), (8, 7, 14));
    ("ruling:3:2:1", (12, 186, 6), (29, 23, 248));
    ("so:3", (2, 3, 1), (2, 1, 3));
  ]

let golden_problem spec =
  match String.split_on_char ':' spec with
  | [ "matching"; d; x; y ] ->
      Slocal_problems.Matching_family.pi ~delta:(int_of_string d)
        ~x:(int_of_string x) ~y:(int_of_string y)
  | [ "mm"; d ] ->
      Slocal_problems.Matching_family.maximal_matching ~delta:(int_of_string d)
  | [ "arb"; d; c ] ->
      Slocal_problems.Coloring_family.pi ~delta:(int_of_string d)
        ~c:(int_of_string c)
  | [ "ruling"; d; c; b ] ->
      Slocal_problems.Ruling_family.pi ~delta:(int_of_string d)
        ~c:(int_of_string c) ~beta:(int_of_string b)
  | [ "so"; d ] ->
      Slocal_problems.Classic.sinkless_orientation ~delta:(int_of_string d)
  | _ -> invalid_arg spec

let shape (p : Problem.t) =
  (Alphabet.size p.Problem.alphabet, Constr.size p.Problem.white,
   Constr.size p.Problem.black)

let shape_t = Alcotest.(triple int int int)

(* The fast kernel ([Re_step]) and the reference oracle
   ([Re_reference]) against the same pinned shapes. *)
let golden_kernels =
  [
    ( "fast",
      fun p ->
        Re_step.clear_cache ();
        (shape (Re_step.r_black p).Re_step.problem, shape (Re_step.re p)) );
    ( "reference",
      fun p ->
        (shape (fst (Re_reference.r_black p)), shape (Re_reference.re p)) );
  ]

let golden_tests =
  List.concat_map
    (fun (spec, after_r, after_re) ->
      List.map
        (fun (kname, shapes) ->
          Alcotest.test_case (Printf.sprintf "%s (%s)" spec kname) `Quick
            (fun () ->
              let r, re = shapes (golden_problem spec) in
              check shape_t "after R" after_r r;
              check shape_t "after RE" after_re re))
        golden_kernels)
    golden_cases

(* The same golden counts with the REs run concurrently: [2 * jobs]
   pool tasks share one instance of the problem (its constraints'
   lazily built down closures, published atomically by {!Constr}) and
   the RE result cache, which {!Re_step} locks.  Every task must
   reproduce the sequential fast kernel's shapes. *)
let golden_parallel_tests =
  List.concat_map
    (fun (spec, after_r, after_re) ->
      List.map
        (fun jobs ->
          Alcotest.test_case
            (Printf.sprintf "%s (fast, jobs=%d)" spec jobs)
            `Quick
            (fun () ->
              Re_step.clear_cache ();
              let p = golden_problem spec in
              Slocal_obs.Pool.run ~jobs (2 * jobs) (fun _ ->
                  (shape (Re_step.r_black p).Re_step.problem, shape (Re_step.re p)))
              |> Array.iter (fun (r, re) ->
                     check shape_t "after R" after_r r;
                     check shape_t "after RE" after_re re)))
        [ 1; 2; 4 ])
    golden_cases

(* Two RE steps on the matching family's heaviest profiles, cache
   cleared first: the strong side's lattice nodes ([re.enum_nodes] over
   all four R steps) and the canonical hashes of Π, RE(Π) and RE²(Π).
   Arity 4 and 5 is where the lattice search's goodness memo is hit, so
   a change to that search that visits other nodes, or numbers labels
   differently, moves these numbers. *)
let two_step_goldens =
  [
    ("matching:4:0:1", 6924, [ 398846080; 239930371; 898926657 ]);
    ("matching:5:0:1", 23800, [ 77638650; 780157254; 656937135 ]);
  ]

let two_step_tests =
  List.map
    (fun (spec, nodes, hashes) ->
      Alcotest.test_case (spec ^ " (two RE steps)") `Quick (fun () ->
          let enum_nodes = Slocal_obs.Telemetry.counter "re.enum_nodes" in
          Re_step.clear_cache ();
          let before = Slocal_obs.Telemetry.value enum_nodes in
          let p0 = golden_problem spec in
          let p1 = Re_step.re p0 in
          let p2 = Re_step.re p1 in
          check int_t "re.enum_nodes" nodes
            (Slocal_obs.Telemetry.value enum_nodes - before);
          check
            Alcotest.(list int)
            "canonical hashes" hashes
            (List.map Problem.canonical_hash [ p0; p1; p2 ])))
    two_step_goldens

let test_kernels_agree_structurally () =
  (* Beyond the counts: both kernels emit the very same problem. *)
  List.iter
    (fun (spec, _, _) ->
      let p = golden_problem spec in
      check bool_t spec true
        (Problem.equal (Re_step.re ~cache:false p) (Re_reference.re p)))
    [ ("mm:3", (), ()); ("arb:3:2", (), ()); ("so:3", (), ()) ]

let test_re_cache_hits () =
  let hits = Slocal_obs.Telemetry.counter "re.cache_hits" in
  let misses = Slocal_obs.Telemetry.counter "re.cache_misses" in
  Re_step.clear_cache ();
  check int_t "clear zeroes the hit counter" 0
    (Slocal_obs.Telemetry.value hits);
  check int_t "clear zeroes the miss counter" 0
    (Slocal_obs.Telemetry.value misses);
  let p = golden_problem "mm:3" in
  let q1 = Re_step.re p in
  check int_t "first call misses" 1 (Slocal_obs.Telemetry.value misses);
  let q2 = Re_step.re p in
  check int_t "second call hits the cache" 1
    (Slocal_obs.Telemetry.value hits);
  check bool_t "cached result is the same problem" true (Problem.equal q1 q2);
  Re_step.clear_cache ();
  check int_t "explicit clear starts a fresh measurement window" 0
    (Slocal_obs.Telemetry.value hits + Slocal_obs.Telemetry.value misses);
  let q3 = Re_step.re p in
  check int_t "post-clear traffic counts from zero" 1
    (Slocal_obs.Telemetry.value misses);
  check int_t "post-clear recomputation is not a hit" 0
    (Slocal_obs.Telemetry.value hits);
  check bool_t "recomputed result equal" true (Problem.equal q1 q3)

let test_re_cache_clear_under_parallel () =
  (* Regression: [clear_cache] once cleared only the calling domain's
     telemetry, so re.cache_* counts recorded by pool workers survived
     the clear — the value stayed positive and any delta window opened
     right after a clear could go negative.  Run REs inside pool tasks,
     clear, and require a genuinely zeroed measurement window. *)
  let module Pool = Slocal_obs.Pool in
  let hits = Slocal_obs.Telemetry.counter "re.cache_hits" in
  let misses = Slocal_obs.Telemetry.counter "re.cache_misses" in
  Re_step.clear_cache ();
  let specs = [| "mm:3"; "arb:3:2"; "so:3"; "mm:3"; "arb:3:2"; "so:3" |] in
  (* Worker domains query and fill the result cache, so the stores
     absorbed at the join carry nonzero hit/miss counts. *)
  ignore
    (Pool.run ~jobs:3 (Array.length specs) (fun i ->
         Problem.canonical_hash (Re_step.re (golden_problem specs.(i)))));
  check bool_t "parallel REs recorded cache traffic" true
    (Slocal_obs.Telemetry.value hits + Slocal_obs.Telemetry.value misses > 0);
  Re_step.clear_cache ();
  check int_t "clear zeroes absorbed worker counts too (hits)" 0
    (Slocal_obs.Telemetry.value hits);
  check int_t "clear zeroes absorbed worker counts too (misses)" 0
    (Slocal_obs.Telemetry.value misses);
  (* A post-clear delta window must never see negative counts. *)
  let before = Slocal_obs.Telemetry.snapshot () in
  ignore (Re_step.re (golden_problem "mm:3"));
  let d =
    Slocal_obs.Telemetry.delta ~before
      ~after:(Slocal_obs.Telemetry.snapshot ())
  in
  List.iter
    (fun name ->
      let v = Option.value ~default:0 (List.assoc_opt name d) in
      check bool_t (name ^ " delta non-negative") true (v >= 0))
    [ "re.cache_hits"; "re.cache_misses" ];
  check int_t "fresh window: exactly one miss" 1
    (Option.value ~default:0 (List.assoc_opt "re.cache_misses" d))

let prop_random_problem_roundtrip =
  (* Random small problems round-trip through the document format. *)
  QCheck.Test.make ~name:"random problems round-trip of_string/to_string"
    ~count:60
    QCheck.(pair (int_bound 6) (int_bound 6))
    (fun (wi, bi) ->
      let configs =
        [
          Multiset.of_list [ 0; 0 ];
          Multiset.of_list [ 0; 1 ];
          Multiset.of_list [ 1; 1 ];
        ]
      in
      let subs =
        List.filter
          (fun s -> s <> [])
          (List.concat_map
             (fun k -> Slocal_util.Combinat.subsets_of_size k configs)
             [ 1; 2; 3 ])
      in
      let pick i = List.nth subs (i mod List.length subs) in
      let p =
        Problem.make ~name:"rand"
          ~alphabet:(Alphabet.of_names [ "A"; "B" ])
          ~white:(Constr.make ~arity:2 (pick wi))
          ~black:(Constr.make ~arity:2 (pick bi))
      in
      Problem.equal p (Problem.of_string (Problem.to_string p)))

let prop_diagram_stronger_transitive =
  QCheck.Test.make ~name:"strength relation is transitive" ~count:100
    QCheck.(triple (int_bound 4) (int_bound 4) (int_bound 4))
    (fun (a, b, c) ->
      let p = Slocal_problems.Matching_family.pi ~delta:4 ~x:0 ~y:1 in
      let d = Diagram.black p in
      let a = a mod 5 and b = b mod 5 and c = c mod 5 in
      if Diagram.stronger d a b && Diagram.stronger d b c then
        Diagram.stronger d a c
      else true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_problem_roundtrip;
      prop_diagram_stronger_transitive;
      QCheck.Test.make ~name:"right closure is idempotent and extensive" ~count:100
        QCheck.(small_list (int_bound 2))
        (fun labels ->
          let d = Diagram.black mm3 in
          let s = Bitset.of_list labels in
          let c = Diagram.right_closure d s in
          Diagram.is_right_closed d c
          && Bitset.equal c (Diagram.right_closure d c)
          && Bitset.subset s c);
      QCheck.Test.make ~name:"extendable is monotone under sub-multisets" ~count:200
        QCheck.(small_list (int_bound 2))
        (fun labels ->
          let c = mm3.Problem.black in
          let msl = Multiset.of_list labels in
          if Multiset.size msl > 3 || Multiset.size msl = 0 then true
          else if Constr.extendable msl c then
            List.for_all
              (fun sub -> Constr.extendable sub c)
              (Multiset.sub_multisets (Multiset.size msl - 1) msl)
          else true);
    ]

let () =
  Alcotest.run "formalism"
    [
      ( "alphabet",
        [
          Alcotest.test_case "basics" `Quick test_alphabet;
          Alcotest.test_case "rejects" `Quick test_alphabet_rejects;
        ] );
      ( "parser",
        [
          Alcotest.test_case "expansion" `Quick test_parse_expands;
          Alcotest.test_case "exponent zero" `Quick test_parse_exponent_zero;
          Alcotest.test_case "newline separator" `Quick test_parse_newline_separator;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_to_string_roundtrip;
          Alcotest.test_case "of_string" `Quick test_of_string;
        ] );
      ( "constr",
        [
          Alcotest.test_case "extendable" `Quick test_constr_extendable;
          Alcotest.test_case "choices" `Quick test_constr_choices;
          Alcotest.test_case "vacuous" `Quick test_constr_vacuous;
          Alcotest.test_case "map_labels" `Quick test_constr_map_labels;
        ] );
      ( "diagram",
        [
          Alcotest.test_case "appendix A" `Quick test_diagram_appendix_a;
          Alcotest.test_case "reflexive" `Quick test_diagram_reflexive;
          Alcotest.test_case "right-closed sets" `Quick test_right_closed_sets;
          Alcotest.test_case "equivalent labels" `Quick test_diagram_equivalent_labels;
        ] );
      ( "relaxation",
        [
          Alcotest.test_case "reflexive" `Quick test_relaxation_reflexive;
          Alcotest.test_case "label map" `Quick test_relaxation_label_map;
          Alcotest.test_case "strictly weaker" `Quick test_relaxation_strictly_weaker;
          Alcotest.test_case "incompatible" `Quick test_relaxation_incompatible;
          Alcotest.test_case "witness" `Quick test_relaxation_witness;
        ] );
      ( "round elimination",
        [
          Alcotest.test_case "R(mm3)" `Quick test_r_black_of_mm3;
          Alcotest.test_case "RE arities" `Quick test_re_arities;
          Alcotest.test_case "meanings right-closed" `Quick test_re_meanings_right_closed;
          Alcotest.test_case "maximality" `Quick test_maximal_good_configs;
          Alcotest.test_case "mm3 not fixed point" `Quick test_mm3_not_fixed_point;
          Alcotest.test_case "SO fixed point" `Quick test_sinkless_fixed_point;
          Alcotest.test_case "renaming equality" `Quick test_equal_up_to_renaming;
          Alcotest.test_case "swap sides" `Quick test_swap_sides;
          Alcotest.test_case "R̄ meanings" `Quick test_r_white_meanings;
          Alcotest.test_case "RE composition" `Quick test_re_is_composition;
          Alcotest.test_case "sequence degenerate cases" `Quick test_sequence_empty_and_singleton;
        ] );
      ("golden RE", golden_tests);
      ("golden RE parallel", golden_parallel_tests);
      ("golden RE 2 steps", two_step_tests);
      ( "kernel",
        [
          Alcotest.test_case "fast = reference structurally" `Quick
            test_kernels_agree_structurally;
          Alcotest.test_case "result cache" `Quick test_re_cache_hits;
          Alcotest.test_case "cache clear under parallel runs" `Quick
            test_re_cache_clear_under_parallel;
        ] );
      ("properties", qsuite);
    ]
