(* Tests for the static-analysis layer: the diagnostic engine, the
   invariant checkers on clean built-in problems, the broken fixture
   documents (each SL code fires), fabricated lifts / groundings /
   certificates, and the property tests (document round-trip, diagram
   transitivity on randomized constraints). *)

module Alphabet = Slocal_formalism.Alphabet
module Constr = Slocal_formalism.Constr
module Problem = Slocal_formalism.Problem
module Diagram = Slocal_formalism.Diagram
module Re_step = Slocal_formalism.Re_step
module Bipartite = Slocal_graph.Bipartite
module Gen = Slocal_graph.Graph_gen
module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat
module Prng = Slocal_util.Prng
module Lift = Supported_local.Lift
module Framework = Supported_local.Framework
module D = Slocal_analysis.Diagnostic
module Invariants = Slocal_analysis.Invariants
module Audit = Slocal_analysis.Audit
module Source = Slocal_analysis.Source
module Check = Slocal_analysis.Check
module Staticcheck = Slocal_analysis.Staticcheck
module Json = Slocal_obs.Json
module MF = Slocal_problems.Matching_family
module CF = Slocal_problems.Coloring_family
module RF = Slocal_problems.Ruling_family
module Classic = Slocal_problems.Classic

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)
let has_code c diags = List.mem c (codes diags)

let errors diags = List.filter (fun d -> d.D.severity = D.Error) diags

let mm3 =
  Problem.parse ~name:"mm3" ~labels:[ "M"; "O"; "P" ] ~white:"M O^2 | P^3"
    ~black:"M [O P]^2 | O^3"

(* Every problem family exercised by the acceptance criteria. *)
let builtin_families =
  [
    MF.maximal_matching ~delta:3;
    MF.maximal_matching ~delta:4;
    MF.pi ~delta:3 ~x:0 ~y:1;
    MF.pi ~delta:4 ~x:1 ~y:1;
    CF.pi ~delta:3 ~c:2;
    CF.pi ~delta:2 ~c:3;
    RF.pi ~delta:3 ~c:2 ~beta:1;
    RF.pi ~delta:2 ~c:2 ~beta:2;
    Classic.sinkless_orientation ~delta:3;
    Classic.sinkless_coloring ~delta:3;
    Classic.coloring ~delta:2 ~c:2;
    Classic.coloring ~delta:3 ~c:3;
    Classic.mis_family ~delta:3;
    Classic.ruling_set_family ~delta:3 ~beta:2;
  ]

(* ------------------------------------------------------------------ *)
(* Diagnostic engine *)

let test_diagnostic_basics () =
  let d = D.error ~code:"SL010" ~subject:"p" ~location:(D.Label "M") "msg" in
  check Alcotest.string "machine" "SL010\terror\tp\tlabel M\tmsg"
    (D.to_machine_string d);
  Alcotest.check_raises "bad code"
    (Invalid_argument "Diagnostic.make: malformed code \"X1\"") (fun () ->
      ignore (D.error ~code:"X1" ~subject:"p" "msg"));
  let w = D.warning ~code:"SL001" ~subject:"p" "w" in
  let i = D.info ~code:"SL014" ~subject:"p" "i" in
  check int_t "exit empty" 0 (D.exit_code []);
  check int_t "exit info" 0 (D.exit_code [ i ]);
  check int_t "exit warning" 1 (D.exit_code [ i; w ]);
  check int_t "exit error" 2 (D.exit_code [ w; d; i ]);
  (* Sorted report puts the error first. *)
  check bool_t "error sorts first" true
    (List.hd (List.sort D.compare [ i; w; d ]) == d)

let test_code_table_consistent () =
  (* Codes ascending and unique; severities match what checkers emit. *)
  let cs = List.map (fun e -> e.Check.code) Check.code_table in
  check bool_t "sorted unique" true (List.sort_uniq compare cs = cs);
  check bool_t "SL000 present" true (Check.find_entry "SL000" <> None);
  check bool_t "unknown absent" true (Check.find_entry "SL999" = None)

(* ------------------------------------------------------------------ *)
(* Clean built-in problems: the acceptance criterion *)

let test_builtins_lint_clean () =
  List.iter
    (fun p ->
      let diags = Check.lint_problem p in
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "%s lints clean" p.Problem.name)
        []
        (List.map D.to_machine_string (errors diags)))
    builtin_families

let test_re_chain_clean () =
  let diags = Check.lint_re_chain mm3 ~steps:2 in
  check int_t "re chain clean" 0 (List.length diags)

let test_lift_of_builtins_clean () =
  List.iter
    (fun (p, delta, r) ->
      let l = Lift.lift ~delta ~r p in
      let diags = Invariants.lift_checks l in
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "lift of %s clean" p.Problem.name)
        []
        (List.map D.to_machine_string (errors diags)))
    [
      (mm3, 3, 3);
      (mm3, 4, 4);
      (Classic.sinkless_orientation ~delta:3, 4, 4);
      (Classic.coloring ~delta:2 ~c:2, 2, 2);
    ]

(* ------------------------------------------------------------------ *)
(* Broken fixtures: every source-level code fires *)

let fixture name = Filename.concat "fixtures" name

let test_fixture_undeclared_label () =
  let p, diags = Source.lint_file (fixture "undeclared_label.slp") in
  check bool_t "no problem" true (p = None);
  check (Alcotest.list Alcotest.string) "SL000" [ "SL000" ] (codes diags)

let test_fixture_unused_label () =
  let diags = Check.lint_file (fixture "unused_label.slp") in
  check bool_t "SL001 fires" true (has_code "SL001" diags);
  check int_t "no errors" 0 (List.length (errors diags))

let test_fixture_one_sided_label () =
  let diags = Check.lint_file (fixture "one_sided_label.slp") in
  check bool_t "SL002 fires" true (has_code "SL002" diags)

let test_fixture_duplicate_config () =
  let diags = Check.lint_file (fixture "duplicate_config.slp") in
  check bool_t "SL004 fires" true (has_code "SL004" diags)

let test_fixture_noncanonical () =
  let diags = Check.lint_file (fixture "noncanonical.slp") in
  check bool_t "SL005 fires" true (has_code "SL005" diags);
  (* Three distinct findings on the one white line. *)
  check int_t "three SL005" 3
    (List.length (List.filter (fun d -> d.D.code = "SL005") diags))

let test_missing_file () =
  let diags = Check.lint_file "fixtures/does_not_exist.slp" in
  check bool_t "SL000 fires" true (has_code "SL000" diags)

(* ------------------------------------------------------------------ *)
(* API-level well-formedness codes *)

let test_empty_constraint_sl003 () =
  let p =
    Problem.make ~name:"empty-white"
      ~alphabet:(Alphabet.of_names [ "A" ])
      ~white:(Constr.make ~arity:2 [])
      ~black:(Constr.make ~arity:2 [ Multiset.of_list [ 0; 0 ] ])
  in
  let diags = Invariants.problem_checks p in
  check bool_t "SL003 fires" true (has_code "SL003" diags)

let test_degree_mismatch_sl006 () =
  let diags = Invariants.problem_checks ~delta:1 ~r:2 mm3 in
  check bool_t "SL006 fires" true (has_code "SL006" diags);
  let clean = Invariants.problem_checks ~delta:3 ~r:5 mm3 in
  check bool_t "clean at large degrees" false (has_code "SL006" clean)

(* ------------------------------------------------------------------ *)
(* Fabricated lifts: the non-right-closed lift set scenario *)

let test_fabricated_lift_non_right_closed () =
  let l = Lift.lift ~delta:3 ~r:3 mm3 in
  (* {P} is not right-closed in the mm3 black diagram (O is stronger
     than P), so planting it as a meaning must trip both the family
     check and the per-label check. *)
  let dia = Diagram.black mm3 in
  let p_label = Alphabet.find_exn mm3.Problem.alphabet "P" in
  let bad_set = Bitset.singleton p_label in
  check bool_t "precondition: {P} not closed" false
    (Diagram.is_right_closed dia bad_set);
  let meaning = Array.copy l.Lift.meaning in
  meaning.(0) <- bad_set;
  let diags = Invariants.lift_checks { l with Lift.meaning } in
  check bool_t "SL020 fires" true (has_code "SL020" diags);
  check bool_t "SL021 fires" true (has_code "SL021" diags)

let test_fabricated_lift_metadata () =
  let l = Lift.lift ~delta:3 ~r:3 mm3 in
  let diags = Invariants.lift_checks { l with Lift.delta = 4 } in
  check bool_t "SL022 fires" true (has_code "SL022" diags)

let test_fabricated_lift_configs () =
  let l = Lift.lift ~delta:3 ~r:3 mm3 in
  let lifted = l.Lift.problem in
  let white = lifted.Problem.white in
  let n = Alphabet.size lifted.Problem.alphabet in
  (* Any multiset of lift labels missing from the (complete) white
     constraint must violate Definition 3.1: planting it triggers
     SL023; removing a genuine configuration triggers SL024. *)
  let absent =
    List.find
      (fun labels -> not (Constr.mem (Multiset.of_list labels) white))
      (Combinat.multisets_of_size (Constr.arity white)
         (List.init n (fun i -> i)))
  in
  let with_junk =
    Constr.make ~arity:(Constr.arity white)
      (Multiset.of_list absent :: Constr.configs white)
  in
  let problem_junk =
    Problem.make ~name:lifted.Problem.name
      ~alphabet:lifted.Problem.alphabet ~white:with_junk
      ~black:lifted.Problem.black
  in
  check bool_t "SL023 fires" true
    (has_code "SL023"
       (Invariants.lift_checks { l with Lift.problem = problem_junk }));
  let without_first =
    Constr.make ~arity:(Constr.arity white) (List.tl (Constr.configs white))
  in
  let problem_missing =
    Problem.make ~name:lifted.Problem.name
      ~alphabet:lifted.Problem.alphabet ~white:without_first
      ~black:lifted.Problem.black
  in
  check bool_t "SL024 fires" true
    (has_code "SL024"
       (Invariants.lift_checks { l with Lift.problem = problem_missing }))

let test_fabricated_grounding () =
  let g = Re_step.r_black mm3 in
  check int_t "genuine grounding clean" 0
    (List.length (Invariants.grounding_checks ~prev:mm3 g));
  let meaning = Array.map (fun _ -> Bitset.empty) g.Re_step.meaning in
  let diags =
    Invariants.grounding_checks ~prev:mm3 { g with Re_step.meaning }
  in
  check bool_t "SL026 fires" true (has_code "SL026" diags)

(* ------------------------------------------------------------------ *)
(* Certificate audits: genuine and fabricated *)

let c6 =
  let g = Gen.cycle 6 in
  Bipartite.make g
    (Array.init 6 (fun v ->
         if v mod 2 = 0 then Bipartite.White else Bipartite.Black))

let c4 =
  let g = Gen.cycle 4 in
  Bipartite.make g
    (Array.init 4 (fun v ->
         if v mod 2 = 0 then Bipartite.White else Bipartite.Black))

let col2 = Classic.coloring ~delta:2 ~c:2

let audit ?recheck_budget support res =
  Audit.audit_result ~support ~last_problem:col2 ~k:1 ?recheck_budget res

let test_audit_genuine_unsolvable () =
  (* 2-coloring of C6: the lift is unsolvable, det >= 1. *)
  let res = Framework.analyze c6 ~last_problem:col2 ~k:1 in
  check bool_t "precondition: unsolvable" true
    (res.Framework.certificate = Framework.Unsolvable_by_search);
  check (Alcotest.option int_t) "det rounds" (Some 1)
    res.Framework.det_rounds;
  check int_t "audit clean" 0 (List.length (audit c6 res))

let test_audit_genuine_solvable () =
  (* 2-coloring of C4 is solvable: only the SL034 info. *)
  let res = Framework.analyze c4 ~last_problem:col2 ~k:1 in
  let diags = audit c4 res in
  check (Alcotest.list Alcotest.string) "only SL034" [ "SL034" ] (codes diags);
  check int_t "exit code 0" 0 (D.exit_code diags)

let test_audit_fabricated_certificate () =
  let res = Framework.analyze c6 ~last_problem:col2 ~k:1 in
  (* Tampered round count. *)
  check bool_t "SL032 fires" true
    (has_code "SL032" (audit c6 { res with Framework.det_rounds = Some 99 }));
  (* Tampered solvability: a wrong-length edge labeling. *)
  let forged =
    {
      res with
      Framework.certificate = Framework.Solvable (Array.make 17 0);
      det_rounds = None;
    }
  in
  check bool_t "SL031 fires" true (has_code "SL031" (audit c6 forged));
  (* A certificate whose claimed solution fails the checker replay. *)
  let forged_bad_labels =
    {
      res with
      Framework.certificate = Framework.Solvable (Array.make 6 0);
      det_rounds = None;
    }
  in
  check bool_t "SL031 fires on replay" true
    (has_code "SL031" (audit c6 forged_bad_labels));
  (* Undecided: warning only. *)
  let undecided =
    { res with Framework.certificate = Framework.Undecided; det_rounds = None }
  in
  check bool_t "SL033 fires" true (has_code "SL033" (audit c6 undecided));
  (* Tampered support statistics. *)
  check bool_t "SL035 fires" true
    (has_code "SL035" (audit c6 { res with Framework.girth = Some 99 }));
  check bool_t "SL035 fires on node count" true
    (has_code "SL035" (audit c6 { res with Framework.support_nodes = 7 }))

let test_audit_refutes_fabricated_unsolvability () =
  (* C4 is solvable; claiming unsolvability must be refuted by the
     independent re-search. *)
  let res = Framework.analyze c4 ~last_problem:col2 ~k:1 in
  check bool_t "precondition: solvable" true
    (match res.Framework.certificate with
    | Framework.Solvable _ -> true
    | _ -> false);
  let girth = match res.Framework.girth with Some g -> g | None -> 0 in
  let forged =
    {
      res with
      Framework.certificate = Framework.Unsolvable_by_search;
      det_rounds =
        Some (max 0 (Supported_local.Re_supported.theorem_b2 ~k:1 ~girth));
    }
  in
  check bool_t "SL036 fires" true (has_code "SL036" (audit c4 forged));
  (* With the re-search budget off, the forgery goes unnoticed. *)
  check bool_t "SL036 silent without budget" false
    (has_code "SL036" (audit ~recheck_budget:0 c4 forged))

let test_audit_wrong_last_problem () =
  let res = Framework.analyze c6 ~last_problem:col2 ~k:1 in
  let diags =
    Audit.audit_result ~support:c6 ~last_problem:mm3 ~k:1 res
  in
  check bool_t "SL030 fires" true (has_code "SL030" diags)

(* ------------------------------------------------------------------ *)
(* Budget infos on large alphabets *)

let test_large_alphabet_budget_infos () =
  let p = Classic.coloring ~delta:2 ~c:17 in
  let diags = Check.lint_problem p in
  check int_t "no errors" 0 (List.length (errors diags));
  check bool_t "SL014 fires" true (has_code "SL014" diags);
  check bool_t "SL025 fires" true (has_code "SL025" diags)

(* ------------------------------------------------------------------ *)
(* Property tests *)

let test_roundtrip_all_families () =
  List.iter
    (fun p ->
      let p' = Problem.of_string (Problem.to_string p) in
      check bool_t
        (Printf.sprintf "%s round-trips" p.Problem.name)
        true (Problem.equal p p'))
    builtin_families

(* A random constraint over [n] labels with the given arity. *)
let random_constraint rng ~n ~arity =
  let n_configs = 1 + Prng.int rng 6 in
  Constr.make ~arity
    (List.init n_configs (fun _ ->
         Multiset.of_list (List.init arity (fun _ -> Prng.int rng n))))

let test_diagram_transitive_randomized () =
  let rng = Prng.create 0xD1A6 in
  for _ = 1 to 150 do
    let n = 2 + Prng.int rng 4 in
    let arity = 1 + Prng.int rng 3 in
    let constr = random_constraint rng ~n ~arity in
    let dia = Diagram.of_constraint ~alphabet_size:n constr in
    for x = 0 to n - 1 do
      if not (Diagram.stronger dia x x) then Alcotest.fail "not reflexive";
      for y = 0 to n - 1 do
        for z = 0 to n - 1 do
          if
            Diagram.stronger dia z y
            && Diagram.stronger dia x z
            && not (Diagram.stronger dia x y)
          then Alcotest.fail "not transitive"
        done
      done
    done
  done

let test_diagram_checks_randomized () =
  (* The full analysis (independent recomputation, closure fixpoints)
     agrees with the Diagram module on randomized problems. *)
  let rng = Prng.create 0x5EED in
  for _ = 1 to 40 do
    let n = 2 + Prng.int rng 3 in
    let w_arity = 1 + Prng.int rng 2 and b_arity = 1 + Prng.int rng 2 in
    let p =
      Problem.make
        ~name:(Printf.sprintf "random-%d" (Prng.int rng 1_000_000))
        ~alphabet:
          (Alphabet.of_names
             (List.init n (fun i -> Printf.sprintf "L%d" i)))
        ~white:(random_constraint rng ~n ~arity:w_arity)
        ~black:(random_constraint rng ~n ~arity:b_arity)
    in
    let diags = Invariants.diagram_checks p in
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "%s diagram checks clean" p.Problem.name)
      []
      (List.map D.to_machine_string (errors diags))
  done

let test_roundtrip_randomized () =
  let rng = Prng.create 0x0F00D in
  for _ = 1 to 60 do
    let n = 1 + Prng.int rng 5 in
    let w_arity = 1 + Prng.int rng 3 and b_arity = 1 + Prng.int rng 3 in
    let p =
      Problem.make ~name:"random-roundtrip"
        ~alphabet:
          (Alphabet.of_names (List.init n (fun i -> Printf.sprintf "L%d" i)))
        ~white:(random_constraint rng ~n ~arity:w_arity)
        ~black:(random_constraint rng ~n ~arity:b_arity)
    in
    check bool_t "random problem round-trips" true
      (Problem.equal p (Problem.of_string (Problem.to_string p)))
  done

(* ------------------------------------------------------------------ *)
(* SL041: telemetry name drift against the DESIGN.md §6 table *)

let test_telemetry_registrations () =
  let src =
    "let c = Telemetry.counter \"re.steps\"\n\
     let g = gauge \"graph.girth_achieved\"\n\
     let h = Slocal_obs.Telemetry.histogram \"span.solve\"\n\
     let again = counter \"re.steps\"\n\
     let not_a_call = my_counter \"bogus.name\"\n\
     let no_literal = counter name\n"
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "registrations found, deduplicated, sorted"
    [
      ("counter", "re.steps");
      ("gauge", "graph.girth_achieved");
      ("histogram", "span.solve");
    ]
    (Source.telemetry_registrations src)

let design_stub =
  "## 6. Telemetry\n\n\
   ### Counter and gauge names\n\n\
   | prefix | names |\n\
   |---|---|\n\
   | `re.` | `steps`, `cache_hits` |\n\
   | `graph.` | `girth_achieved` |\n\n\
   Span names follow `span.<area>`.\n\n\
   ## 7. Next\n\
   | `bogus.` | `after_section` |\n"

let test_design_metric_names () =
  check
    (Alcotest.list Alcotest.string)
    "table rows parsed, later sections ignored"
    [ "graph.girth_achieved"; "re.cache_hits"; "re.steps" ]
    (Source.design_metric_names design_stub);
  check
    (Alcotest.list Alcotest.string)
    "no table means no names" []
    (Source.design_metric_names "## 6. Telemetry\nno table here\n")

let test_telemetry_name_findings () =
  let documented_src = "let c = counter \"re.steps\"\n" in
  let drifted_src = "let c = counter \"re.undocumented_counter\"\n" in
  check bool_t "documented name is clean" true
    (Source.telemetry_name_findings ~design:design_stub
       [ ("a.ml", documented_src) ]
    = []);
  (match
     Source.telemetry_name_findings ~design:design_stub
       [ ("a.ml", documented_src); ("b.ml", drifted_src) ]
   with
  | [ d ] ->
      check Alcotest.string "drift is SL041" "SL041" d.D.code;
      check bool_t "drift is a warning" true (d.D.severity = D.Warning);
      check Alcotest.string "drift names the file" "b.ml" d.D.subject
  | ds ->
      Alcotest.fail
        (Printf.sprintf "expected 1 finding, got %d" (List.length ds)));
  (* A design document without the table is itself a finding. *)
  check bool_t "missing table reported" true
    (has_code "SL041"
       (Source.telemetry_name_findings ~design:"nothing here"
          [ ("a.ml", documented_src) ]))

let test_telemetry_lint_repo () =
  (* The real sources (library, CLI, bench harness) against the real
     design document: the documented inventory must not drift (this is
     the CI lint). *)
  let design = "../../../DESIGN.md" in
  let src_dirs =
    List.filter Sys.file_exists
      [ "../../../lib"; "../../../bin"; "../../../bench" ]
  in
  if Sys.file_exists design && src_dirs <> [] then
    check
      (Alcotest.list Alcotest.string)
      "repo registrations all documented" []
      (List.map D.to_machine_string
         (Source.lint_telemetry_files ~design ~src_dirs))

(* ------------------------------------------------------------------ *)
(* SL050–SL056: the domain-safety analyzer *)

let sc_findings src = Staticcheck.scan_source ~file:"a.ml" src

let sc_keys src = List.map (fun f -> f.Staticcheck.key) (sc_findings src)

let test_staticcheck_mutable_bindings () =
  check
    (Alcotest.list Alcotest.string)
    "constructors at module scope are findings"
    [
      "mutable:cache"; "mutable:count"; "mutable:buf"; "mutable:q";
      "mutable:slots";
    ]
    (sc_keys
       "let cache = Hashtbl.create 16\n\
        let count = ref 0\n\
        let buf = Buffer.create 80\n\
        let q = Queue.create ()\n\
        let slots = Array.make 4 None\n");
  (* function-local mutation is out of scope: parameters make the
     binding a function, and nested closures own their own state *)
  check
    (Alcotest.list Alcotest.string)
    "function-local refs are ignored" []
    (sc_keys
       "let f x =\n\
       \  let seen = Hashtbl.create 16 in\n\
       \  let n = ref 0 in\n\
       \  incr n; Hashtbl.length seen + x\n");
  check
    (Alcotest.list Alcotest.string)
    "constructors inside a nested function body are ignored" []
    (sc_keys
       "let cmd =\n\
       \  let run spec =\n\
       \    let p = ref spec in\n\
       \    !p\n\
       \  in\n\
       \  run\n");
  check
    (Alcotest.list Alcotest.string)
    "comments and strings never produce findings" []
    (sc_keys
       "(* let fake = ref 0 *)\n\
        let s = \"Hashtbl.create at_exit Random.self_init\"\n")

let test_staticcheck_lazy_and_types () =
  check
    (Alcotest.list Alcotest.string)
    "module-scope lazy is a finding" [ "lazy:tty" ]
    (sc_keys "let tty = lazy (Unix.isatty Unix.stderr)\n");
  (match sc_findings "type t = { mutable state : int64 }\n" with
  | [ { Staticcheck.kind = Staticcheck.Mutable_type [ "state" ]; _ } ] -> ()
  | _ -> Alcotest.fail "single-line mutable field not detected");
  (match
     sc_findings
       "type cachey = {\n\
       \  name : string;\n\
       \  memo : (int, bool) Hashtbl.t;\n\
        }\n"
   with
  | [ { Staticcheck.kind = Staticcheck.Mutable_type [ "memo" ]; _ } ] -> ()
  | _ -> Alcotest.fail "container field not detected");
  check
    (Alcotest.list Alcotest.string)
    "plain array fields are deliberately out of scope" []
    (sc_keys "type v = { data : int array; width : int }\n");
  (* types nested inside modules are indented but still module scope *)
  (match
     sc_findings
       "module H = struct\n\
       \  type t = {\n\
       \    mutable h_count : int;\n\
       \    h_buckets : int array;\n\
       \  }\n\
        end\n"
   with
  | [ { Staticcheck.kind = Staticcheck.Mutable_type [ "h_count" ]; _ } ] -> ()
  | _ -> Alcotest.fail "nested-module mutable type not detected");
  (* a module-level record literal over a mutable type *)
  check bool_t "record literal with mutable fields is a finding" true
    (List.mem "mutable:global"
       (sc_keys
          "type t = { mutable state : int }\n\
           let global = { state = 0 }\n"))

let test_staticcheck_nondeterminism () =
  check
    (Alcotest.list Alcotest.string)
    "global PRNG uses are findings" [ "random:seed_it"; "random:roll" ]
    (sc_keys
       "let seed_it () = Random.self_init ()\n\
        let roll () = Random.int 6\n");
  check
    (Alcotest.list Alcotest.string)
    "explicit-state and seeded PRNG uses are fine" []
    (sc_keys
       "let mk () = Random.State.make [| 42 |]\n\
        let seed () = Random.init 42\n");
  (match sc_findings "let now () = Unix.gettimeofday ()\n" with
  | [ { Staticcheck.kind = Staticcheck.Wall_clock "Unix.gettimeofday"; _ } ] ->
      ()
  | _ -> Alcotest.fail "wall clock not detected");
  check
    (Alcotest.list Alcotest.string)
    "lib/obs is the designated timekeeper" []
    (List.map
       (fun f -> f.Staticcheck.key)
       (Staticcheck.scan_source ~file:"lib/obs/ledger.ml"
          "let now () = Unix.gettimeofday ()\n"))

let test_staticcheck_order_and_handlers () =
  (match sc_findings "let dump tbl = Hashtbl.iter print tbl\n" with
  | [ { Staticcheck.kind = Staticcheck.Hash_order_iteration _; line = 1; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "hash-order iteration not detected");
  check
    (Alcotest.list Alcotest.string)
    "a canonical sort in the same item suppresses the finding" []
    (sc_keys
       "let dump tbl =\n\
       \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
       \  |> List.sort compare\n");
  check
    (Alcotest.list Alcotest.string)
    "exit hooks are findings" [ "exit-handler:_" ]
    (sc_keys "let () = at_exit flush\n")

let test_staticcheck_pragmas () =
  let annotated src =
    let findings, diags = Staticcheck.analyze [ ("a.ml", src) ] in
    (findings, diags)
  in
  (* same-line pragma *)
  (match
     annotated
       "let cache = Hashtbl.create 4 (* staticcheck: \
        shared-cache-needs-lock guarded by cache_mutex *)\n"
   with
  | ( [
        {
          Staticcheck.classification = Some Staticcheck.Shared_cache_needs_lock;
          annotation = Some Staticcheck.Pragma;
          reason = Some "guarded by cache_mutex";
          _;
        };
      ],
      [] ) ->
      ()
  | _ -> Alcotest.fail "same-line pragma not applied");
  (* pragma above the finding, and the domain-safe alias *)
  (match
     annotated
       "(* staticcheck: domain-safe set once at startup *)\n\
        let mode = ref 0\n"
   with
  | ( [
        {
          Staticcheck.classification = Some Staticcheck.Immutable_after_init;
          annotation = Some Staticcheck.Pragma;
          _;
        };
      ],
      [] ) ->
      ()
  | _ -> Alcotest.fail "line-above pragma / domain-safe alias not applied");
  (* unannotated: one warning with the kind's code *)
  (match annotated "let cache = Hashtbl.create 4\n" with
  | [ { Staticcheck.classification = None; _ } ], [ d ] ->
      check Alcotest.string "unannotated is SL050" "SL050" d.D.code;
      check bool_t "warning severity" true (d.D.severity = D.Warning)
  | _ -> Alcotest.fail "unannotated finding not reported");
  (* malformed classification *)
  (match annotated "(* staticcheck: totally-fine trust me *)\nlet c = ref 0\n"
   with
  | _, diags ->
      check bool_t "malformed pragma is SL056" true (has_code "SL056" diags));
  (* stale pragma: nothing within the attachment window *)
  (match
     annotated "(* staticcheck: per-call nothing here *)\nlet pure = 42\n"
   with
  | [], diags -> check bool_t "stale pragma is SL056" true (has_code "SL056" diags)
  | _ -> Alcotest.fail "expected no findings")

let test_staticcheck_table () =
  let table_text =
    "| file | key | class | reason |\n\
     | ---- | --- | ----- | ------ |\n\
     | a.ml | mutable:cache | shared-cache-needs-lock | guarded |\n\
     | a.ml | mutable:gone | per-call | stale row |\n\
     | b.ml | mutable:cache | not-a-class | bad |\n"
  in
  let rows, row_diags = Staticcheck.parse_table table_text in
  check int_t "two well-formed rows" 2 (List.length rows);
  check bool_t "bad class column is SL056" true (has_code "SL056" row_diags);
  let findings, diags =
    Staticcheck.analyze
      ~table:(rows, row_diags)
      [ ("src/a.ml", "let cache = Hashtbl.create 4\n") ]
  in
  (match findings with
  | [
   {
     Staticcheck.classification = Some Staticcheck.Shared_cache_needs_lock;
     annotation = Some Staticcheck.Table;
     _;
   };
  ] ->
      ()
  | _ -> Alcotest.fail "table row not applied by file suffix");
  (* the unmatched row is stale *)
  check bool_t "stale table row is SL056" true
    (List.exists
       (fun d ->
         d.D.code = "SL056"
         && d.D.subject = "STATICCHECK.md"
         && String.length d.D.message > 0)
       diags)

let test_staticcheck_json_report () =
  let findings, _ =
    Staticcheck.analyze
      [
        ( "a.ml",
          "let cache = Hashtbl.create 4 (* staticcheck: \
           shared-cache-needs-lock guarded *)\n\
           let c = ref 0\n" );
      ]
  in
  let json = Staticcheck.report_json ~roots:[ "a" ] findings in
  (* the document round-trips through the JSON printer/parser *)
  match Json.of_string (Json.to_string json) with
  | Error e -> Alcotest.fail ("report does not round-trip: " ^ e)
  | Ok (Json.Obj fields) ->
      check bool_t "schema field" true
        (List.assoc_opt "schema" fields
        = Some (Json.String Staticcheck.schema_version));
      (match List.assoc_opt "findings" fields with
      | Some (Json.List fs) ->
          check int_t "one object per finding" (List.length findings)
            (List.length fs)
      | _ -> Alcotest.fail "findings array missing");
      (match List.assoc_opt "summary" fields with
      | Some (Json.Obj s) ->
          check bool_t "summary totals" true
            (List.assoc_opt "total" s = Some (Json.Int 2)
            && List.assoc_opt "annotated" s = Some (Json.Int 1)
            && List.assoc_opt "unannotated" s = Some (Json.Int 1))
      | _ -> Alcotest.fail "summary missing")
  | Ok _ -> Alcotest.fail "report is not an object"

(* The golden inventory over the real repository: the per-directory,
   per-code counts of the classified findings.  This pins the shape of
   the shared-mutable-state map the multicore kernel will start from —
   update it intentionally when state is added or removed. *)
let test_staticcheck_repo_inventory () =
  let root = "../../.." in
  let dirs = List.map (Filename.concat root) [ "lib"; "bin"; "bench" ] in
  if List.for_all Sys.file_exists dirs then begin
    let findings, diags =
      Staticcheck.analyze_files
        ~table_path:(Filename.concat root "STATICCHECK.md")
        ~src_dirs:dirs ()
    in
    check
      (Alcotest.list Alcotest.string)
      "repo inventory fully classified" []
      (List.map D.to_machine_string diags);
    let dir_of f =
      (* lib/obs, lib/formalism, ... ; bin and bench stay whole *)
      match String.split_on_char '/' f.Staticcheck.file with
      | ".." :: ".." :: ".." :: "lib" :: sub :: _ :: _ -> "lib/" ^ sub
      | ".." :: ".." :: ".." :: d :: _ -> d
      | _ -> f.Staticcheck.file
    in
    let counts = Hashtbl.create 16 in
    List.iter
      (fun f ->
        let k = (dir_of f, Staticcheck.code_of_kind f.Staticcheck.kind) in
        Hashtbl.replace counts k
          (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
      findings;
    let got =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
      |> List.sort compare
    in
    check
      (Alcotest.list
         (Alcotest.pair (Alcotest.pair Alcotest.string Alcotest.string) int_t))
      "per-directory per-code golden counts"
      [
        (("bin", "SL055"), 1);
        (("lib/analysis", "SL051"), 1);
        (("lib/core", "SL051"), 1);
        (("lib/formalism", "SL050"), 4);
        (("lib/formalism", "SL051"), 2);
        (("lib/obs", "SL050"), 21);
        (("lib/obs", "SL051"), 4);
        (("lib/obs", "SL054"), 1);
        (("lib/obs", "SL055"), 1);
        (("lib/problems", "SL054"), 2);
        (("lib/serve", "SL051"), 1);
        (("lib/serve", "SL055"), 1);
        (("lib/util", "SL051"), 1);
      ]
      got
  end

(* ------------------------------------------------------------------ *)
(* SL057: the fast slp source lint *)

let test_slp_lint_synthetic () =
  let doc =
    "problem p\n\
     labels: M O P Z\n\
     white:\n\
    \  [O P] [O P] M\n\
     black:\n\
    \  M O P\n"
  in
  let diags = Source.lint_slp ~subject:"doc" doc in
  check int_t "two findings" 2 (List.length diags);
  check (Alcotest.list Alcotest.string) "both are SL057" [ "SL057" ]
    (codes diags);
  check bool_t "unused label named" true
    (List.exists (fun d -> d.D.location = D.Label "Z") diags);
  check bool_t "within-line duplicate located" true
    (List.exists (fun d -> d.D.location = D.Source_line (D.White, 1)) diags);
  (* the same duplication across two lines is SL004's business, not ours *)
  check
    (Alcotest.list Alcotest.string)
    "clean document is clean" []
    (List.map D.to_machine_string
       (Source.lint_slp ~subject:"doc"
          "problem p\nlabels: M O\nwhite:\n  M O\nblack:\n  M M\n"));
  check bool_t "unparsable document is SL000" true
    (has_code "SL000" (Source.lint_slp ~subject:"doc" "not a problem"))

let test_slp_lint_fixture () =
  let diags = Source.lint_slp_file (fixture "slp_lint.slp") in
  check int_t "fixture has exactly the two planted defects" 2
    (List.length diags);
  check (Alcotest.list Alcotest.string) "SL057" [ "SL057" ] (codes diags)

(* ------------------------------------------------------------------ *)
(* SL041 over bench registrations (the bench harness registers
   bench.experiments; a design table without it must drift-fail) *)

let test_telemetry_bench_drift () =
  let bench = "../../../bench/main.ml" in
  if Sys.file_exists bench then begin
    let read path =
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let text = read bench in
    check bool_t "bench registers bench.experiments" true
      (List.mem ("counter", "bench.experiments")
         (Source.telemetry_registrations text));
    (* design_stub documents re./graph. names only: the bench counter
       must be reported as drift when bench sources are scanned *)
    let diags =
      Source.telemetry_name_findings ~design:design_stub
        [ ("bench/main.ml", text) ]
    in
    check bool_t "undocumented bench name is SL041" true
      (List.exists
         (fun d ->
           d.D.code = "SL041" && d.D.subject = "bench/main.ml"
           && String.length d.D.message > 0)
         diags)
  end

(* ------------------------------------------------------------------ *)
(* Bench_report: slocal.bench/1 parsing and the allocation gate,
   including the forward-compatibility contract against a committed
   pre-allocation baseline fixture *)

module BR = Slocal_analysis.Bench_report

let bench_doc s =
  match Json.of_string s with Ok j -> j | Error e -> Alcotest.fail e

let bench_of_json json =
  match BR.of_json json with Ok r -> r | Error e -> Alcotest.fail e

(* A minimal current-generation report: FIG1 and T15 carry the
   allocation fields, E-PAR is a parallel experiment. *)
let bench_report ~fig1_alloc ~t15_alloc ~epar_alloc =
  bench_of_json
    (bench_doc
       (Printf.sprintf
          {|{"schema":"slocal.bench/1","mode":"tables","quick":false,
             "experiments":[
               {"id":"FIG1","title":"f","wall_ns":100,"alloc_b":%d,
                "minor_n":3,"major_n":1,"counters":{"re.enum_nodes":50}},
               {"id":"E-PAR","title":"p","wall_ns":100,"alloc_b":%d,
                "counters":{}},
               {"id":"T15","title":"t","wall_ns":100,"alloc_b":%d,
                "counters":{}}],
             "benchmarks":[]}|}
          fig1_alloc epar_alloc t15_alloc))

let alloc_row rows id = (List.find (fun r -> r.BR.id = id) rows).BR.alloc

let test_bench_report_parse () =
  let r = bench_report ~fig1_alloc:1000 ~t15_alloc:2000 ~epar_alloc:5000 in
  check (Alcotest.list Alcotest.string) "experiment ids in file order"
    [ "FIG1"; "E-PAR"; "T15" ]
    (List.map (fun (e : BR.experiment) -> e.BR.id) r.BR.experiments);
  let fig1 = List.hd r.BR.experiments in
  check (Alcotest.option int_t) "alloc_b parsed" (Some 1000) fig1.BR.alloc_b;
  check (Alcotest.option int_t) "minor_n parsed" (Some 3) fig1.BR.minor_n;
  check (Alcotest.option int_t) "major_n parsed" (Some 1) fig1.BR.major_n;
  check (Alcotest.option int_t) "counters still read" (Some 50)
    (List.assoc_opt "re.enum_nodes" fig1.BR.counters);
  check bool_t "a missing title is the diagnostic" true
    (BR.of_json
       (bench_doc
          {|{"schema":"slocal.bench/1","mode":"tables","experiments":
             [{"id":"FIG1","wall_ns":1,"counters":{}}],"benchmarks":[]}|})
    = Error "missing field \"title\"");
  check bool_t "ratio clamps a zero baseline" true (BR.ratio_of 5 0 = 5.);
  check bool_t "gate arithmetic: 2% holds" false
    (BR.breaches ~ratio:BR.alloc_gate_ratio ~base:1000 ~cur:1020);
  check bool_t "gate arithmetic: above 2% breaches" true
    (BR.breaches ~ratio:BR.alloc_gate_ratio ~base:1000 ~cur:1021)

let test_bench_alloc_gate () =
  let baseline =
    bench_report ~fig1_alloc:1000 ~t15_alloc:2000 ~epar_alloc:5000
  in
  (* Within tolerance everywhere; E-PAR triples but is exempt. *)
  let ok =
    BR.evaluate
      [
        baseline;
        bench_report ~fig1_alloc:1015 ~t15_alloc:2000 ~epar_alloc:15000;
      ]
  in
  let checked, skipped =
    List.partition
      (fun r -> match r.BR.alloc with BR.Gated _ -> true | _ -> false)
      ok
  in
  check int_t "three shared experiments checked" 3 (List.length checked);
  check int_t "nothing skipped" 0 (List.length skipped);
  check bool_t "no breach within tolerance" true
    (List.for_all
       (fun r ->
         match r.BR.alloc with BR.Gated { breach; _ } -> not breach | _ -> true)
       ok);
  check bool_t "the parallel experiment is exempt, not gated" true
    (match alloc_row ok "E-PAR" with
    | BR.Gated { breach = false; latest = 15000; median = 5000 } ->
        List.exists (fun r -> r.BR.id = "E-PAR" && r.BR.exempt) ok
    | _ -> false);
  (* A 3% regression on a gated experiment breaches. *)
  let bad =
    BR.evaluate
      [
        baseline;
        bench_report ~fig1_alloc:1030 ~t15_alloc:2000 ~epar_alloc:5000;
      ]
  in
  check bool_t "3% regression breaches" true
    (match alloc_row bad "FIG1" with
    | BR.Gated { breach; _ } -> breach
    | _ -> false)

let test_bench_forward_compat () =
  (* The committed pre-allocation baseline (a real slocal.bench/1
     report written before alloc_b existed) must parse cleanly and be
     skipped-and-noted by the allocation gate, never crash it. *)
  let old =
    match BR.read_file (fixture "bench_v1_noalloc.json") with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let exps = old.BR.experiments in
  check bool_t "the fixture carries a full experiment sweep" true
    (List.length exps >= 15);
  check bool_t "no experiment carries allocation fields" true
    (List.for_all (fun (e : BR.experiment) -> e.BR.alloc_b = None) exps);
  check bool_t "enum_nodes still extracted" true
    (List.exists
       (fun (e : BR.experiment) -> List.mem_assoc "re.enum_nodes" e.BR.counters)
       exps);
  let rows =
    BR.evaluate
      [ old; bench_report ~fig1_alloc:999999 ~t15_alloc:999999 ~epar_alloc:1 ]
  in
  check (Alcotest.list Alcotest.string) "older side: checked nothing" []
    (List.filter_map
       (fun r ->
         match r.BR.alloc with BR.Gated _ -> Some r.BR.id | _ -> None)
       rows);
  check bool_t "shared experiments skipped-and-noted" true
    (alloc_row rows "FIG1" = BR.One_point
    && alloc_row rows "T15" = BR.One_point)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "basics" `Quick test_diagnostic_basics;
          Alcotest.test_case "code table" `Quick test_code_table_consistent;
        ] );
      ( "clean",
        [
          Alcotest.test_case "builtins lint clean" `Quick
            test_builtins_lint_clean;
          Alcotest.test_case "re chain clean" `Quick test_re_chain_clean;
          Alcotest.test_case "lifts clean" `Quick test_lift_of_builtins_clean;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "undeclared label" `Quick
            test_fixture_undeclared_label;
          Alcotest.test_case "unused label" `Quick test_fixture_unused_label;
          Alcotest.test_case "one-sided label" `Quick
            test_fixture_one_sided_label;
          Alcotest.test_case "duplicate config" `Quick
            test_fixture_duplicate_config;
          Alcotest.test_case "non-canonical" `Quick test_fixture_noncanonical;
          Alcotest.test_case "missing file" `Quick test_missing_file;
        ] );
      ( "wellformedness",
        [
          Alcotest.test_case "empty constraint" `Quick
            test_empty_constraint_sl003;
          Alcotest.test_case "degree mismatch" `Quick
            test_degree_mismatch_sl006;
        ] );
      ( "lift",
        [
          Alcotest.test_case "non-right-closed meaning" `Quick
            test_fabricated_lift_non_right_closed;
          Alcotest.test_case "metadata" `Quick test_fabricated_lift_metadata;
          Alcotest.test_case "configs" `Quick test_fabricated_lift_configs;
          Alcotest.test_case "grounding" `Quick test_fabricated_grounding;
        ] );
      ( "audit",
        [
          Alcotest.test_case "genuine unsolvable" `Quick
            test_audit_genuine_unsolvable;
          Alcotest.test_case "genuine solvable" `Quick
            test_audit_genuine_solvable;
          Alcotest.test_case "fabricated certificate" `Quick
            test_audit_fabricated_certificate;
          Alcotest.test_case "fabricated unsolvability" `Quick
            test_audit_refutes_fabricated_unsolvability;
          Alcotest.test_case "wrong last problem" `Quick
            test_audit_wrong_last_problem;
        ] );
      ( "budget",
        [
          Alcotest.test_case "large alphabet infos" `Quick
            test_large_alphabet_budget_infos;
        ] );
      ( "telemetry-names",
        [
          Alcotest.test_case "registration scan" `Quick
            test_telemetry_registrations;
          Alcotest.test_case "design table parse" `Quick
            test_design_metric_names;
          Alcotest.test_case "drift findings" `Quick
            test_telemetry_name_findings;
          Alcotest.test_case "repo inventory documented" `Quick
            test_telemetry_lint_repo;
          Alcotest.test_case "bench registration drift" `Quick
            test_telemetry_bench_drift;
        ] );
      ( "staticcheck",
        [
          Alcotest.test_case "mutable bindings" `Quick
            test_staticcheck_mutable_bindings;
          Alcotest.test_case "lazy and mutable types" `Quick
            test_staticcheck_lazy_and_types;
          Alcotest.test_case "nondeterminism sources" `Quick
            test_staticcheck_nondeterminism;
          Alcotest.test_case "hash order and handlers" `Quick
            test_staticcheck_order_and_handlers;
          Alcotest.test_case "pragmas" `Quick test_staticcheck_pragmas;
          Alcotest.test_case "annotation table" `Quick test_staticcheck_table;
          Alcotest.test_case "json report" `Quick test_staticcheck_json_report;
          Alcotest.test_case "repo golden inventory" `Quick
            test_staticcheck_repo_inventory;
        ] );
      ( "bench-report",
        [
          Alcotest.test_case "parse and gate arithmetic" `Quick
            test_bench_report_parse;
          Alcotest.test_case "allocation gate" `Quick test_bench_alloc_gate;
          Alcotest.test_case "pre-alloc baseline forward-compat" `Quick
            test_bench_forward_compat;
        ] );
      ( "slp-lint",
        [
          Alcotest.test_case "synthetic" `Quick test_slp_lint_synthetic;
          Alcotest.test_case "fixture" `Quick test_slp_lint_fixture;
        ] );
      ( "properties",
        [
          Alcotest.test_case "families round-trip" `Quick
            test_roundtrip_all_families;
          Alcotest.test_case "random round-trip" `Quick
            test_roundtrip_randomized;
          Alcotest.test_case "diagram transitive" `Quick
            test_diagram_transitive_randomized;
          Alcotest.test_case "diagram checks randomized" `Quick
            test_diagram_checks_randomized;
        ] );
    ]
