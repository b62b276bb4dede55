(* The work operations shared by the CLI and the serve daemon. *)

open Slocal_formalism
module Gen = Slocal_graph.Graph_gen
module Bipartite = Slocal_graph.Bipartite
module Solver = Slocal_model.Solver
module MF = Slocal_problems.Matching_family
module CF = Slocal_problems.Coloring_family
module RF = Slocal_problems.Ruling_family
module Classic = Slocal_problems.Classic

let int_field spec s =
  try int_of_string s
  with Failure _ ->
    invalid_arg (Printf.sprintf "spec %S: %S is not an integer" spec s)

let parse_problem spec =
  let p =
    match String.split_on_char ':' spec with
    | [ "matching"; d; x; y ] ->
        MF.pi ~delta:(int_field spec d) ~x:(int_field spec x)
          ~y:(int_field spec y)
    | [ "mm"; d ] -> MF.maximal_matching ~delta:(int_field spec d)
    | [ "arb"; d; c ] -> CF.pi ~delta:(int_field spec d) ~c:(int_field spec c)
    | [ "ruling"; d; c; b ] ->
        RF.pi ~delta:(int_field spec d) ~c:(int_field spec c)
          ~beta:(int_field spec b)
    | [ "so"; d ] -> Classic.sinkless_orientation ~delta:(int_field spec d)
    | [ "col"; d; c ] ->
        Classic.coloring ~delta:(int_field spec d) ~c:(int_field spec c)
    | "file" :: rest ->
        let path = String.concat ":" rest in
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        Problem.of_string text
    | _ -> invalid_arg (Printf.sprintf "unknown problem spec %S" spec)
  in
  (* No-op unless a run context is open (kernel-facing subcommands). *)
  Slocal_obs.Ledger.note_problem ~name:p.Problem.name
    ~hash:(Problem.canonical_hash p);
  p

let parse_graph spec =
  match String.split_on_char ':' spec with
  | [ "cycle"; k ] ->
      let k = int_field spec k in
      Bipartite.make (Gen.cycle (2 * k))
        (Array.init (2 * k) (fun v ->
             if v mod 2 = 0 then Bipartite.White else Bipartite.Black))
  | [ "kbb"; a; b ] ->
      Gen.complete_bipartite (int_field spec a) (int_field spec b)
  | [ "cover-petersen" ] -> Gen.double_cover (Gen.petersen ())
  | [ "cover-random"; n; d; seed ] ->
      let rng = Slocal_util.Prng.create (int_field spec seed) in
      let c =
        Gen.high_girth_low_independence rng ~n:(int_field spec n)
          ~d:(int_field spec d) ()
      in
      Gen.double_cover c.Gen.graph
  | [ "biregular"; nw; nb; dw; db; seed ] ->
      let rng = Slocal_util.Prng.create (int_field spec seed) in
      Gen.random_biregular rng ~nw:(int_field spec nw) ~nb:(int_field spec nb)
        ~dw:(int_field spec dw) ~db:(int_field spec db)
  | _ -> invalid_arg (Printf.sprintf "unknown graph spec %S" spec)

let error_message = function
  | Invalid_argument msg | Failure msg | Sys_error msg -> Some msg
  | _ -> None

type re_result = { problems : Problem.t list; fixed_point : bool }

let last r = List.nth r.problems (List.length r.problems - 1)

let re ~steps p =
  if steps < 0 then
    invalid_arg (Printf.sprintf "steps must be at least 0, got %d" steps);
  let rec go q i =
    if i >= steps then [ q ] else q :: go (Re_step.re q) (i + 1)
  in
  let problems = go p 0 in
  let q = List.nth problems (List.length problems - 1) in
  { problems; fixed_point = Re_step.is_fixed_point q }

type sequence_result = {
  sequence : Problem.t list;
  checks : Sequence.step list;
  lower_bound : bool option;
}

let sequence ?max_nodes ~steps p =
  let sequence = Sequence.iterate_re p ~steps in
  let checks = Sequence.check ?max_nodes sequence in
  { sequence; checks; lower_bound = Sequence.verdict checks }

type solve_result = { outcome : Solver.outcome; stats : Solver.stats }

let solve ?max_nodes g p =
  let outcome, stats = Solver.solve_stats ?max_nodes g p in
  { outcome; stats }

type audit_result = {
  analysis : Supported_local.Framework.result;
  diagnostics : Slocal_analysis.Diagnostic.t list;
}

let audit ?max_nodes ?recheck_budget ~k g p =
  let analysis = Supported_local.Framework.analyze ?max_nodes g ~last_problem:p ~k in
  let diagnostics =
    Slocal_analysis.Check.audit ~support:g ~last_problem:p ~k ?recheck_budget
      analysis
  in
  { analysis; diagnostics }
