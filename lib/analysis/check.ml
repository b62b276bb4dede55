open Slocal_formalism
module Lift = Supported_local.Lift
module D = Diagnostic

type entry = { code : string; severity : D.severity; title : string }

let code_table =
  [
    { code = "SL000"; severity = D.Error; title = "unparsable problem document" };
    { code = "SL001"; severity = D.Warning; title = "label declared but never used" };
    { code = "SL002"; severity = D.Warning; title = "label used on one side only (unusable on biregular supports)" };
    { code = "SL003"; severity = D.Error; title = "constraint has no configurations" };
    { code = "SL004"; severity = D.Warning; title = "duplicate or subsumed condensed configuration" };
    { code = "SL005"; severity = D.Warning; title = "non-canonical condensed syntax" };
    { code = "SL006"; severity = D.Error; title = "target support degree below the problem arity" };
    { code = "SL010"; severity = D.Error; title = "strength relation disagrees with independent recomputation" };
    { code = "SL011"; severity = D.Error; title = "strength relation not reflexive" };
    { code = "SL012"; severity = D.Error; title = "strength relation not transitive" };
    { code = "SL013"; severity = D.Error; title = "right-closed family is not the fixpoints of right-closure" };
    { code = "SL014"; severity = D.Info; title = "exhaustive right-closed enumeration skipped (large alphabet)" };
    { code = "SL020"; severity = D.Error; title = "lift alphabet is not the non-empty right-closed set family" };
    { code = "SL021"; severity = D.Error; title = "lift label meaning empty or not right-closed" };
    { code = "SL022"; severity = D.Error; title = "lift arity or metadata inconsistent" };
    { code = "SL023"; severity = D.Error; title = "lift configuration violates Definition 3.1" };
    { code = "SL024"; severity = D.Error; title = "lift constraint missing a Definition 3.1 configuration" };
    { code = "SL025"; severity = D.Info; title = "lift check skipped (budget)" };
    { code = "SL026"; severity = D.Error; title = "round elimination grounding inconsistent" };
    { code = "SL030"; severity = D.Error; title = "certificate does not match the stated inputs" };
    { code = "SL031"; severity = D.Error; title = "solvability certificate fails checker replay" };
    { code = "SL032"; severity = D.Error; title = "det_rounds inconsistent with min {2k, (g-4)/2}" };
    { code = "SL033"; severity = D.Warning; title = "certificate undecided (solver budget exhausted)" };
    { code = "SL034"; severity = D.Info; title = "lift solvable: no lower bound from this support" };
    { code = "SL035"; severity = D.Error; title = "recorded support statistics differ from the support" };
    { code = "SL036"; severity = D.Error; title = "unsolvability certificate refuted by re-search" };
    { code = "SL037"; severity = D.Info; title = "unsolvability re-search undecided within audit budget" };
    { code = "SL040"; severity = D.Error; title = "trace file empty or fully damaged" };
    { code = "SL041"; severity = D.Warning; title = "telemetry metric name undocumented, or documented but not registered" };
  ]

let find_entry code = List.find_opt (fun e -> e.code = code) code_table

(* Right-closed set enumeration is exponential in the alphabet; above
   this size the minimal-lift structural check is skipped. *)
let max_lift_alphabet = 14

let lint_problem ?delta ?r ?(check_lift = true) (p : Problem.t) =
  let base =
    Invariants.problem_checks ?delta ?r p @ Invariants.diagram_checks p
  in
  let lift_diags =
    if not check_lift then []
    else if Alphabet.size p.Problem.alphabet > max_lift_alphabet then
      [
        D.info ~code:"SL025" ~subject:p.Problem.name
          (Printf.sprintf
             "minimal-lift structural check skipped: alphabet size %d > %d"
             (Alphabet.size p.Problem.alphabet)
             max_lift_alphabet);
      ]
    else
      let delta = Option.value delta ~default:(Problem.d_white p)
      and r = Option.value r ~default:(Problem.d_black p) in
      if delta < Problem.d_white p || r < Problem.d_black p then
        (* SL006 already reported by problem_checks. *)
        []
      else Invariants.lift_checks (Lift.lift ~delta ~r p)
  in
  base @ lift_diags

let lint_file ?delta ?r path =
  let problem, source_diags = Source.lint_file path in
  match problem with
  | None -> source_diags
  | Some p -> source_diags @ lint_problem ?delta ?r p

let lint_re_chain p ~steps =
  let diags = ref [] in
  let current = ref p in
  for _ = 1 to steps do
    let g1 = Re_step.r_black !current in
    diags := !diags @ Invariants.grounding_checks ~prev:!current g1;
    let g2 = Re_step.r_white g1.Re_step.problem in
    diags := !diags @ Invariants.grounding_checks ~prev:g1.Re_step.problem g2;
    current := g2.Re_step.problem
  done;
  !diags

let audit ~support ~last_problem ~k ?recheck_budget res =
  Audit.audit_result ~support ~last_problem ~k ?recheck_budget res
  @ Invariants.lift_checks res.Supported_local.Framework.lift

let pp_code_table fmt () =
  Format.fprintf fmt "%-7s %-8s %s@." "code" "severity" "meaning";
  List.iter
    (fun e ->
      Format.fprintf fmt "%-7s %-8s %s@." e.code
        (D.severity_to_string e.severity)
        e.title)
    code_table
