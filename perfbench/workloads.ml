(* The four perfbench workloads.  Each one turns a seed into a fixed list
   of ops (one pass); the harness in bench.ml times the ops, repeats the
   pass, and checks every output through the closure each op returns.
   Only public library functions are called, each inside a span named
   after its layer ("perfbench.<layer>.<call>"), so a traced run can
   attribute time without any span inside lib/. *)

open Slocal_formalism
module Telemetry = Slocal_obs.Telemetry
module Json = Slocal_obs.Json
module Profile = Slocal_analysis.Profile
module Gen = Slocal_graph.Graph_gen
module Graph = Slocal_graph.Graph
module Bipartite = Slocal_graph.Bipartite
module Girth = Slocal_graph.Girth
module Independence = Slocal_graph.Independence
module Hypergraph = Slocal_graph.Hypergraph
module Hypergraph_gen = Slocal_graph.Hypergraph_gen
module Prng = Slocal_util.Prng
module Multiset = Slocal_util.Multiset
module Checker = Slocal_model.Checker
module Solver = Slocal_model.Solver
module MF = Slocal_problems.Matching_family
module RF = Slocal_problems.Ruling_family
module Classic = Slocal_problems.Classic
module Lift = Supported_local.Lift
module Zero_round = Supported_local.Zero_round
module Framework = Supported_local.Framework
module Counting = Supported_local.Counting
module Re_supported = Supported_local.Re_supported
module Serve = Slocal_serve.Serve

type timer = { timed : 'a. (unit -> 'a) -> 'a; pass : int }

type op = { kind : string; run : timer -> string option }
(** [run t] builds fresh inputs, performs the measured work inside
    [t.timed] exactly once, and checks the output: [None] when it is
    correct, [Some reason] otherwise.  [t.pass] (0, 1, …) selects the
    pass's member of a seeded input pool. *)

type finished = {
  error : string option;  (** End-of-run check failure. *)
  rss_kb : int;  (** VmHWM of the process that did the work. *)
  daemon : Profile.t option;  (** The daemon's own trace, when traced. *)
}

type t = {
  groups : op array array;
      (** One pass.  The ops of a group run back to back; the harness
          runs the groups in a seeded order that changes per pass. *)
  counts : unit -> (string * int) list;
      (** Cumulative kernel counters of the process doing the work. *)
  extras : unit -> (string * float) list;
      (** Per-layer values that only the workload can observe. *)
  finish : unit -> finished;  (** Final checks; stops any daemon. *)
}

let names = [ "re-seq"; "certify"; "lift-decide"; "serve-mix" ]
let layer = Telemetry.span

let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let singletons ops = Array.map (fun op -> [| op |]) ops

let in_process ?(counts = Telemetry.snapshot) ?(extras = fun () -> []) groups =
  {
    groups;
    counts;
    extras;
    finish = (fun () -> { error = None; rss_kb = vm_hwm_kb "self"; daemon = None });
  }

let fail fmt = Printf.ksprintf Option.some fmt

(* Generated inputs (graphs, generator seeds) come in seeded pools of
   this size and rotate per pass, so that a run averages over several
   draws instead of hanging on one. *)
let pool_size = 16

let pool rng make =
  let a = Array.init pool_size (fun _ -> make (Prng.create (Prng.int rng 1_000_000_000))) in
  fun (t : timer) -> a.(t.pass mod pool_size)

let hash = Problem.canonical_hash

(* ------------------------------------------------------------------ *)
(* re-seq: RE steps and sequence checks over the paper's families.     *)

(* Specs and step counts.  Excluded after measuring: matching:4:0:2 and
   matching:5:0:1 at k=2, ruling:3:2:1 (README.md); col:3:3, col:2:3 and
   col:4:3 at k=2 fail with a Bitset range error. *)
let re_seq_specs =
  [
    ("matching:3:0:1", 2); ("matching:4:0:1", 2); ("matching:3:1:1", 2);
    ("matching:3:0:2", 2); ("matching:4:1:1", 1); ("matching:4:2:1", 1);
    ("matching:5:0:1", 1); ("mm:2", 3); ("mm:3", 2); ("mm:4", 2); ("mm:5", 1);
    ("arb:2:2", 3); ("arb:2:3", 2); ("arb:3:2", 2); ("arb:3:3", 2);
    ("arb:4:2", 2); ("ruling:2:2:1", 3); ("ruling:2:2:2", 1);
    ("ruling:2:3:1", 1); ("so:3", 3); ("so:4", 2); ("so:5", 2); ("so:6", 1);
    ("col:2:2", 3); ("col:2:3", 1); ("col:3:2", 2); ("col:3:3", 1);
    ("col:4:2", 2); ("col:4:3", 1);
  ]

(* The document of the same problem with its label names permuted among
   themselves, for the parser.  Labels keep their positions: the RE
   kernel's cost depends on label order (README.md), names must not
   matter. *)
let permuted_document rng (p : Problem.t) =
  let rename = Array.of_list (Alphabet.names p.Problem.alphabet) in
  Prng.shuffle rng rename;
  let buf = Buffer.create 1024 in
  let configs c =
    List.iter
      (fun m ->
        Buffer.add_string buf "  ";
        Buffer.add_string buf
          (String.concat " " (List.map (fun l -> rename.(l)) (Multiset.to_list m)));
        Buffer.add_char buf '\n')
      (Constr.configs c)
  in
  Printf.bprintf buf "problem %s\nlabels: %s\nwhite:\n" p.Problem.name
    (String.concat " " (Array.to_list rename));
  configs p.Problem.white;
  Buffer.add_string buf "black:\n";
  configs p.Problem.black;
  Buffer.contents buf

let c_cache_hits = Telemetry.counter "re.cache_hits"
let c_cache_misses = Telemetry.counter "re.cache_misses"

let re_seq ~seed ~goldens =
  let rng = Prng.create seed in
  (* [Re_step.clear_cache] zeroes the cache counters; bank each cleared
     window so the counts stay cumulative. *)
  let banked = ref (0, 0) in
  let clear () =
    let h, m = !banked in
    banked := (h + Telemetry.value c_cache_hits, m + Telemetry.value c_cache_misses);
    Re_step.clear_cache ()
  in
  let counts () =
    let h, m = !banked in
    List.map
      (function
        | ("re.cache_hits", v) -> ("re.cache_hits", v + h)
        | ("re.cache_misses", v) -> ("re.cache_misses", v + m)
        | kv -> kv)
      (Telemetry.snapshot ())
  in
  let problem_ops (spec, k) =
    let hashes =
      match List.assoc_opt spec goldens with
      | Some hs when List.length hs = k + 1 -> Array.of_list hs
      | _ -> invalid_arg (Printf.sprintf "re-seq: no golden for %s at k=%d" spec k)
    in
    let doc = permuted_document rng (Serve.parse_problem_spec spec) in
    (* Parsed once here so that set-up pays for (and checks) the parse;
       each pass re-parses, because constraint memo tables live in the
       problem and would otherwise stay warm across passes. *)
    let p0 = ref (Problem.of_string doc) in
    let seq = ref [ !p0 ] in
    let step i =
      let run t =
        if i = 1 then begin
          clear ();
          p0 := Problem.of_string doc;
          seq := [ !p0 ]
        end;
        let prev = List.hd !seq in
        let grown =
          t.timed (fun () ->
              layer "perfbench.formalism.iterate_re" (fun () ->
                  Sequence.iterate_re prev ~steps:1))
        in
        let q = List.nth grown (List.length grown - 1) in
        seq := q :: !seq;
        if i = 1 && hash !p0 <> hashes.(0) then
          fail "%s: permuted problem hashes to %d, golden %d" spec (hash !p0) hashes.(0)
        else if hash q <> hashes.(i) then
          fail "%s: step %d hashes to %d, golden %d" spec i (hash q) hashes.(i)
        else None
      in
      { kind = "re-step"; run }
    in
    let check t =
      let problems = List.rev !seq in
      let steps =
        t.timed (fun () ->
            layer "perfbench.formalism.check" (fun () -> Sequence.check problems))
      in
      if List.length steps = k
         && List.for_all (fun s -> s.Sequence.verified = Some true) steps
      then None
      else fail "%s: sequence of length %d does not verify" spec k
    in
    Array.of_list (List.init k (fun i -> step (i + 1)) @ [ { kind = "re-check"; run = check } ])
  in
  in_process ~counts (Array.of_list (List.map problem_ops re_seq_specs))

(* ------------------------------------------------------------------ *)
(* certify: support certificates on generated graphs.                   *)

(* (n, d, ops per pass).  The first rows are Moore-feasible sparse pairs
   (girth 5 is reachable; n <= 64 pays for the exact independence
   search); the last row is an E-UNSAT pair below the Moore bound, where
   every swap is futile.  The counts keep each reported percentile
   inside one cost cluster: op_p50 inside the n = 48 rows, op_p90
   inside the dense fifth. *)
let certify_mix =
  [ (32, 3, 2); (36, 3, 2); (40, 3, 3); (48, 3, 4); (48, 4, 5); (24, 8, 4) ]

let moore_feasible ~n ~d = n >= (d * d) + 1
let c_swaps = Telemetry.counter "graph.girth_swaps"

let is_simple g =
  let seen = Hashtbl.create (Graph.m g) in
  Array.for_all
    (fun (u, v) ->
      let key = (min u v, max u v) in
      u <> v && (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
    (Graph.edges g)

let certify ~seed =
  let rng = Prng.create seed in
  let futile = ref 0 and all_swaps = ref 0 in
  let op (n, d) =
    let gen_seed = pool rng (fun r -> Prng.int r 1_000_000_000) in
    let delta' = max 2 (d / 3) in
    let k = MF.sequence_length ~delta' ~x:0 ~y:1 in
    let run t =
      let g_rng = Prng.create (gen_seed t) in
      let swaps0 = Telemetry.value c_swaps in
      let cert, cover, cover_girth, matching, coloring, rounds =
        t.timed (fun () ->
            let cert =
              layer "perfbench.graph.gen" (fun () ->
                  Gen.high_girth_low_independence g_rng ~n ~d ())
            in
            let cover =
              layer "perfbench.graph.cover" (fun () -> Gen.double_cover cert.Gen.graph)
            in
            let cover_girth =
              layer "perfbench.graph.girth" (fun () ->
                  Girth.girth (Bipartite.graph cover))
            in
            let matching, coloring =
              layer "perfbench.core.counting" (fun () ->
                  ( Counting.certify_matching_unsolvable cover ~delta' ~y:1,
                    Counting.coloring_unsolvability ~n:(Graph.n cert.Gen.graph)
                      ~k:1 ~independence_upper:cert.Gen.independence_upper ))
            in
            let rounds =
              layer "perfbench.core.theorem_b2" (fun () ->
                  Re_supported.theorem_b2 ~k
                    ~girth:(Option.value cover_girth ~default:max_int))
            in
            (cert, cover, cover_girth, matching, coloring, rounds))
      in
      let swaps = Telemetry.value c_swaps - swaps0 in
      all_swaps := !all_swaps + swaps;
      (match cert.Gen.girth with
      | Some gi when gi < 5 -> futile := !futile + swaps
      | _ -> ());
      let g = cert.Gen.graph in
      let nn = Graph.n g in
      let greedy = List.length (Independence.greedy g) in
      if nn <> (if n * d mod 2 = 0 then n else n + 1) || not (Graph.is_regular g d)
      then fail "(%d,%d): graph is not %d-regular on %d nodes" n d d n
      else if not (is_simple g) then fail "(%d,%d): graph is not simple" n d
      else if cert.Gen.girth <> Girth.girth g then
        fail "(%d,%d): certified girth differs from Girth.girth" n d
      else if cert.Gen.independence_upper < greedy then
        fail "(%d,%d): independence bound %d below a greedy set of %d" n d
          cert.Gen.independence_upper greedy
      else if Bipartite.n cover <> 2 * nn || not (Bipartite.is_biregular cover ~dw:d ~db:d)
      then fail "(%d,%d): double cover is not (%d,%d)-biregular" n d d d
      else
        match (cover_girth, cert.Gen.girth, matching) with
        | Some cg, Some bg, Some _ ->
            if cg < bg then fail "(%d,%d): cover girth %d below base girth %d" n d cg bg
            else if 2 * cert.Gen.independence_upper < nn && not coloring then
              fail "(%d,%d): coloring certificate fails although 2α < n" n d
            else if rounds <> min (2 * k) ((cg - 4) / 2) then
              fail "(%d,%d): theorem_b2 gives %d on cover girth %d" n d rounds cg
            else None
        | _, _, None -> fail "(%d,%d): matching certificate rejected the cover" n d
        | _ -> fail "(%d,%d): graph or cover has no cycle" n d
    in
    { kind = (if moore_feasible ~n ~d then "certify-sparse" else "certify-dense"); run }
  in
  let draws =
    Array.of_list
      (List.concat_map (fun (n, d, c) -> List.init c (fun _ -> (n, d))) certify_mix)
  in
  let extras () =
    [
      ( "graph.gen.futile_swap_frac",
        if !all_swaps = 0 then 0. else float_of_int !futile /. float_of_int !all_swaps );
    ]
  in
  in_process ~extras (singletons (Array.map op draws))

(* ------------------------------------------------------------------ *)
(* lift-decide: 0-round decisions on (problem, support) pairs.          *)

let bipartite_cycle k = Serve.parse_graph_spec (Printf.sprintf "cycle:%d" k)

let two_label_cycles = [ 2; 3; 4; 5; 6 ]
let solver_budget = 30_000_000

let lift_decide ~seed =
  let rng = Prng.create seed in
  (* E-LIFT: both routes on one two-label problem (fresh memo tables). *)
  let decide k i =
    let expected =
      match List.assoc_opt k Goldens.two_label_verdicts with
      | Some s when String.length s = 49 -> s.[i] = '1'
      | _ -> invalid_arg (Printf.sprintf "lift-decide: no golden for C%d" (2 * k))
    in
    let support = bipartite_cycle k in
    let run t =
      let p = List.nth (Zero_round.two_label_problems ()) i in
      match
        t.timed (fun () ->
            layer "perfbench.core.decide_batch" (fun () ->
                Zero_round.decide_batch support [ p ]))
      with
      | [ (Some a, Some b) ] when a = b ->
          if a = expected then None
          else fail "C%d problem %d: solvable=%b, golden %b" (2 * k) i a expected
      | [ _ ] -> fail "C%d problem %d: routes disagree or are undecided" (2 * k) i
      | _ -> fail "C%d problem %d: decide_batch result has wrong length" (2 * k) i
    in
    { kind = Printf.sprintf "decide-C%d" (2 * k); run }
  in
  (* E-UNSAT: sinkless orientation is 0-round solvable on (4,4) supports
     and not on (5,5) ones. *)
  let so_lift ~d ~nw =
    let support = pool rng (fun r -> Gen.random_biregular r ~nw ~nb:nw ~dw:d ~db:d) in
    let run t =
      let support = support t in
      let so = Classic.sinkless_orientation ~delta:3 in
      let lift, outcome =
        t.timed (fun () ->
            let lift =
              layer "perfbench.core.lift" (fun () -> Zero_round.lift_of_support support so)
            in
            ( lift,
              layer "perfbench.model.solve" (fun () ->
                  Solver.solve ~max_nodes:solver_budget support lift.Lift.problem) ))
      in
      match (outcome, d) with
      | Solver.Solution l, 4 ->
          if Checker.is_solution support lift.Lift.problem l then None
          else fail "SO (4,4) n=%d: lift solution fails the checker" (2 * nw)
      | Solver.No_solution, 5 -> None
      | Solver.Budget_exceeded, _ -> fail "SO (%d,%d) n=%d: undecided" d d (2 * nw)
      | _ -> fail "SO (%d,%d) n=%d: wrong verdict" d d (2 * nw)
    in
    { kind = Printf.sprintf "so-lift-%d%d" d d; run }
  in
  (* E-CYCLE: 2-coloring is 0-round solvable on C_{2k} iff k is even. *)
  let col2 k =
    let support = bipartite_cycle k in
    let run t =
      let col2 = Classic.coloring ~delta:2 ~c:2 in
      let r =
        t.timed (fun () ->
            layer "perfbench.core.analyze" (fun () ->
                Framework.analyze support ~last_problem:col2 ~k:100000))
      in
      match r.Framework.certificate with
      | Framework.Unsolvable_by_search when k mod 2 = 1 -> None
      | Framework.Solvable l when k mod 2 = 0 ->
          if Checker.is_solution support r.Framework.lift.Lift.problem l then None
          else fail "2-coloring C%d: lift solution fails the checker" (2 * k)
      | _ -> fail "2-coloring C%d: wrong or missing verdict" (2 * k)
    in
    { kind = "analyze-col2"; run }
  in
  (* E-RULING: lift solves of Π_Δ'(k,β) on graphs. *)
  let ruling name g ~delta ~delta' ~c ~beta =
    let inc = Hypergraph.incidence (Hypergraph.of_graph g) in
    let run t =
      let p = RF.pi ~delta:delta' ~c ~beta in
      let lift, outcome =
        t.timed (fun () ->
            let l = layer "perfbench.core.lift" (fun () -> Lift.lift ~delta ~r:2 p) in
            ( l,
              layer "perfbench.model.solve" (fun () ->
                  Solver.solve ~max_nodes:solver_budget inc l.Lift.problem) ))
      in
      match outcome with
      | Solver.Solution l when Checker.is_solution inc lift.Lift.problem l -> None
      | Solver.Solution _ -> fail "ruling %s: lift solution fails the checker" name
      | _ -> fail "ruling %s: expected a lift solution" name
    in
    { kind = "ruling-lift"; run }
  in
  (* E-HYP: sinkless orientation on (4,4) and (5,5) hypergraph supports. *)
  let hyp ~degree =
    let support =
      pool rng (fun r ->
          Hypergraph_gen.random_regular_uniform r ~n:10 ~degree ~rank:degree
            ~require_linear:false ())
    in
    let run t =
      let h = support t in
      let so = Classic.sinkless_orientation ~delta:3 in
      let r =
        t.timed (fun () ->
            layer "perfbench.core.analyze" (fun () ->
                Framework.analyze_hypergraph h ~last_problem:so ~k:50))
      in
      match (r.Framework.certificate, degree) with
      | Framework.Solvable l, 4 ->
          if Checker.is_solution (Hypergraph.incidence h) r.Framework.lift.Lift.problem l
          then None
          else fail "hypergraph SO (4,4): lift solution fails the checker"
      | Framework.Unsolvable_by_search, 5 -> None
      | _ -> fail "hypergraph SO (%d,%d): wrong or missing verdict" degree degree
    in
    { kind = Printf.sprintf "hyp-so-%d%d" degree degree; run }
  in
  let ops =
    List.concat_map (fun k -> List.init 49 (decide k)) two_label_cycles
    @ List.concat_map
        (fun nw -> [ so_lift ~d:4 ~nw; so_lift ~d:5 ~nw ])
        [ 8; 9; 10 ]
    @ List.map col2 [ 3; 4; 5; 6; 7; 8; 9 ]
    @ [
        ruling "C12" (Gen.cycle 12) ~delta:2 ~delta':2 ~c:1 ~beta:1;
        ruling "C8" (Gen.cycle 8) ~delta:2 ~delta':2 ~c:1 ~beta:2;
        ruling "Petersen" (Gen.petersen ()) ~delta:3 ~delta':2 ~c:1 ~beta:1;
        hyp ~degree:4;
        hyp ~degree:5;
      ]
  in
  in_process (singletons (Array.of_list ops))

(* ------------------------------------------------------------------ *)
(* serve-mix: a closed loop against a warm slocal serve daemon.         *)

type daemon = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  trace_file : string option;
}

let live_daemons = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

let run_dir = ".perfbench"
let daemon_count = ref 0

let start_daemon ~slocal ~trace =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  incr daemon_count;
  let base =
    Filename.concat run_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !daemon_count)
  in
  let socket = base ^ ".sock" in
  let trace_file = if trace then Some (base ^ ".jsonl") else None in
  let argv =
    [ slocal; "serve"; "--socket"; socket ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let env = Array.append [| "SLOCAL_LEDGER=off" |] (Unix.environment ()) in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process_env slocal (Array.of_list argv) env null null null)
  in
  live_daemons := pid :: !live_daemons;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.005;
        connect ()
  in
  let fd = connect () in
  {
    pid;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    trace_file;
  }

let roundtrip d line =
  output_string d.oc line;
  output_char d.oc '\n';
  flush d.oc;
  input_line d.ic

let stop_daemon d =
  (try ignore (roundtrip d {|{"op":"shutdown"}|}) with End_of_file | Sys_error _ -> ());
  close_in_noerr d.ic;
  ignore (Unix.waitpid [] d.pid);
  live_daemons := List.filter (( <> ) d.pid) !live_daemons

(* Light specs whose RE and RE² (the re op's fixed-point test) stay in
   the low milliseconds; "re col:2:3" is left out because the daemon
   errors on it (README.md). *)
let serve_specs =
  [ "mm:2"; "mm:3"; "so:3"; "so:4"; "arb:2:2"; "arb:3:2"; "col:2:2"; "ruling:2:2:1" ]

let serve_solves = [ ("col:2:2", "cycle:3"); ("col:2:2", "cycle:2"); ("mm:2", "cycle:4") ]
let serve_audits = [ ("col:2:2", "cycle:3"); ("col:2:2", "cycle:2") ]

(* Lines that must be refused with ok:false. *)
let serve_malformed =
  [
    {|{"op":"re","problem":"nonsense:9"}|};
    {|{"op":"frobnicate"}|};
    {|{"op":"solve","problem":"mm:3"}|};
    {|{not json|};
  ]

type request = {
  rkind : string;
  line : string;
  expect : Json.t -> string option;  (** Check of an [ok:true] result. *)
}

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let expect_field path want shown j =
  if member_path path j = Some want then None
  else fail "%s: expected %s" (String.concat "." path) shown

(* One pass: 2000 requests in fixed proportions (72 % re, 9.6 % sequence,
   8.4 % solve, 6 % audit, 4 % refused), every spec, step count and
   graph equally often, so that the seed changes the order only. *)
let request_mix () =
  let golden spec =
    match List.assoc_opt spec Goldens.re_seq with
    | Some hs -> hs
    | None -> invalid_arg ("serve-mix: no golden for " ^ spec)
  in
  let re spec =
    {
      rkind = "re";
      line = Printf.sprintf {|{"op":"re","problem":"%s"}|} spec;
      expect = expect_field [ "hash" ] (Json.Int (List.nth (golden spec) 1)) "golden RE hash";
    }
  in
  let sequence (spec, steps) =
    let hashes = List.filteri (fun i _ -> i <= steps) (golden spec) in
    {
      rkind = "sequence";
      line = Printf.sprintf {|{"op":"sequence","problem":"%s","steps":%d}|} spec steps;
      expect =
        (fun j ->
          match expect_field [ "lower_bound" ] (Json.Bool true) "true" j with
          | Some e -> Some e
          | None ->
              expect_field [ "hashes" ]
                (Json.List (List.map (fun h -> Json.Int h) hashes))
                "golden hashes" j);
    }
  in
  let graph_op op field goldens ((problem, graph) as key) =
    let want =
      match List.assoc_opt key goldens with
      | Some w -> w
      | None -> invalid_arg (Printf.sprintf "serve-mix: no golden for %s %s" op problem)
    in
    {
      rkind = op;
      line = Printf.sprintf {|{"op":"%s","problem":"%s","graph":"%s"}|} op problem graph;
      expect = expect_field [ field ] (Json.String want) want;
    }
  in
  let malformed line = { rkind = "refused"; line; expect = (fun _ -> None) } in
  let times n l = List.concat_map (fun x -> List.init n (fun _ -> x)) l in
  List.map re (times 180 serve_specs)
  @ List.map sequence (times 12 (List.concat_map (fun s -> [ (s, 1); (s, 2) ]) serve_specs))
  @ List.map (graph_op "solve" "outcome" Goldens.serve_solve) (times 56 serve_solves)
  @ List.map (graph_op "audit" "certificate" Goldens.serve_audit) (times 60 serve_audits)
  @ List.map malformed (times 20 serve_malformed)

(* The stats op's sum invariant: the per-request counter deltas add up
   to the registry's movement since start, apart from the daemon's own
   out-of-window counters.  A traced daemon also ticks gc.majors between
   windows (the GC monitor that an installed sink starts), which its
   check_sum does not carve out; only that is tolerated, and only when
   traced. *)
let sum_error ~trace stats =
  match Json.of_string stats with
  | Error e -> fail "stats: unparsable reply (%s)" e
  | Ok j when member_path [ "result"; "check_sum" ] j = Some (Json.Bool true) -> None
  | Ok j when trace ->
      let obj k =
        Option.value ~default:[] (Option.bind (member_path [ "result"; k ] j) Json.as_obj)
      in
      let since = obj "counters_since_start" and totals = obj "request_totals" in
      let exempt = [ "serve.connections"; "serve.heartbeats"; "serve.control"; "gc.majors" ] in
      let off =
        List.filter
          (fun k ->
            (not (List.mem k exempt)) && List.assoc_opt k since <> List.assoc_opt k totals)
          (List.map fst since @ List.map fst totals)
      in
      if off = [] then None
      else fail "stats: per-request counters do not sum up for %s" (String.concat ", " off)
  | Ok _ -> fail "stats: check_sum is not true: %s" stats

let check_response req resp =
  match Json.of_string resp with
  | Error e -> fail "%s: unparsable response (%s)" req.rkind e
  | Ok j -> (
      match (Json.member "ok" j, req.rkind) with
      | Some (Json.Bool false), "refused" -> None
      | Some (Json.Bool true), "refused" -> fail "accepted malformed line %s" req.line
      | Some (Json.Bool true), _ -> (
          match Json.member "result" j with
          | Some r -> Option.map (fun e -> req.rkind ^ " " ^ e) (req.expect r)
          | None -> fail "%s: response has no result" req.rkind)
      | _ -> fail "%s refused: %s" req.rkind resp)

(* Tag a request line with an id: the daemon stamps it on the request's
   trace events, which keeps the warm-up out of the traced profile. *)
let with_id id line =
  Printf.sprintf {|{"id":"%s",%s|} id (String.sub line 1 (String.length line - 1))

let timed_id = "timed"

let serve_mix ~slocal ~trace =
  let requests = request_mix () in
  let d = start_daemon ~slocal ~trace in
  (* Warm-up: every distinct request once, so the timed loop sees a warm
     RE cache. *)
  List.iter
    (fun req ->
      match check_response req (roundtrip d (with_id "warm-up" req.line)) with
      | None -> ()
      | Some e -> failwith ("serve-mix warm-up: " ^ e))
    (List.sort_uniq (fun a b -> compare a.line b.line) requests);
  let counters = Hashtbl.create 64 in
  let windows = ref [] and overheads = ref [] in
  let op req =
    let line = with_id timed_id req.line in
    let run t =
      let resp, rt_ns =
        t.timed (fun () ->
            layer "perfbench.serve.roundtrip" (fun () ->
                let t0 = Telemetry.now_ns () in
                let resp = roundtrip d line in
                (resp, Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0))))
      in
      (match Json.of_string resp with
      | Ok j -> (
          (match Option.bind (member_path [ "counters" ] j) Json.as_obj with
          | Some kvs ->
              List.iter
                (fun (k, v) ->
                  let v = Option.value ~default:0 (Json.as_int v) in
                  Hashtbl.replace counters k
                    (v + Option.value ~default:0 (Hashtbl.find_opt counters k)))
                kvs
          | None -> ());
          match Option.bind (member_path [ "request"; "wall_ns" ] j) Json.as_int with
          | Some w ->
              windows := w :: !windows;
              overheads := (rt_ns - w) :: !overheads
          | None -> ())
      | Error _ -> ());
      check_response req resp
    in
    { kind = "serve-" ^ req.rkind; run }
  in
  let median_ms l =
    match List.sort compare l with
    | [] -> 0.
    | s -> float_of_int (List.nth s ((List.length s - 1) / 2)) /. 1e6
  in
  let finish () =
    let error = sum_error ~trace (roundtrip d {|{"op":"stats"}|}) in
    let rss_kb = vm_hwm_kb (string_of_int d.pid) in
    stop_daemon d;
    let daemon =
      Option.map
        (fun f ->
          let events = Slocal_obs.Trace.read_file ~request:timed_id f in
          Sys.remove f;
          Profile.of_read_result events)
        d.trace_file
    in
    { error; rss_kb; daemon }
  in
  {
    groups = singletons (Array.of_list (List.map op requests));
    counts =
      (fun () ->
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []));
    extras =
      (fun () ->
        [
          ("serve.window_ms_p50", median_ms !windows);
          ("serve.overhead_ms_p50", median_ms !overheads);
        ]);
    finish;
  }
