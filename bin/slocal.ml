(* slocal — a command-line interface to the Supported LOCAL framework.

   The work subcommands (re, sequence, solve, audit and the stats
   workload) map their flags onto one Slocal_serve.Ops call each and
   render the typed result as text: the same operations the serve
   daemon answers over its socket.  The kernel-facing subcommands share
   [with_telemetry] below (--trace, --metrics, --openmetrics,
   --progress, one slocal.run/1 record per run in the run ledger;
   SLOCAL_LEDGER=off disables it).  [slocal --help] and
   [slocal CMD --help] document every subcommand and flag; the problem
   and graph specs are documented at Slocal_serve.Ops.parse_problem and
   parse_graph. *)

open Cmdliner
open Slocal_formalism
module Telemetry = Slocal_obs.Telemetry
module Gen = Slocal_graph.Graph_gen
module Graph = Slocal_graph.Graph
module Bipartite = Slocal_graph.Bipartite
module Girth = Slocal_graph.Girth
module Solver = Slocal_model.Solver
module Checker = Slocal_model.Checker
module Core = Supported_local
module Diagnostic = Slocal_analysis.Diagnostic
module Chk = Slocal_analysis.Check
module Profile = Slocal_analysis.Profile
module Source = Slocal_analysis.Source
module Staticcheck = Slocal_analysis.Staticcheck
module Json = Slocal_obs.Json
module Ledger = Slocal_obs.Ledger
module Progress = Slocal_obs.Progress
module Openmetrics = Slocal_obs.Openmetrics
module Serve = Slocal_serve.Serve
module Ops = Slocal_serve.Ops

(* Specs and the work operations live in Slocal_serve.Ops, so the
   one-shot CLI and the serve daemon accept identical specs and give
   identical answers. *)
let parse_problem = Ops.parse_problem
let parse_graph = Ops.parse_graph

let problem_arg =
  let doc =
    "Problem spec: matching:D:X:Y, mm:D, arb:D:C, ruling:D:C:B, so:D, col:D:C, file:PATH."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROBLEM" ~doc)

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing shared by the kernel-facing subcommands. *)

let trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a JSONL telemetry trace (schema slocal.trace/4) to $(docv): \
           spans over the hot kernels (with allocation and GC-work deltas) \
           plus a final counter snapshot.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the telemetry counter summary to stderr on exit.")

let openmetrics_opt =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "openmetrics" ] ~docv:"FILE"
        ~doc:
          "On exit, write the telemetry registry in the Prometheus text \
           exposition format to $(docv) (atomic temp-file + rename, so a \
           textfile collector never reads a torn snapshot); $(b,-) or no \
           value for stdout.")

let progress_flag =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Emit throttled [progress] heartbeat lines to stderr even when \
           stderr is not a TTY (on a TTY the heartbeat is on by default).")

let jobs_opt =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the command's independent kernel work out over $(docv) OCaml \
           domains (default 1 = sequential).  The report is byte-identical \
           for every $(docv) (DESIGN.md §9); only the wall time, the \
           schedule recorded in a --trace file, and the par.* counters \
           change.")

(* Observability wrapper around every kernel-facing subcommand: opens
   the run-ledger context (one slocal.run/1 record per invocation,
   regardless of flags), installs the requested trace sink, arms the
   progress heartbeat and, on the way out, emits the final telemetry
   snapshots, the OpenMetrics exposition and the ledger record.  The
   teardown is registered with [at_exit] as well, because lint/audit
   exit from inside their run function ([Fun.protect] finalizers do
   not run across [exit]); the [finished] guard keeps the paths
   idempotent.  A failed operation (bad spec, bad parameter,
   unreadable file: [Ops.error_message]) is reported as
   "slocal CMD: MESSAGE" on stderr with exit code 2. *)
let with_telemetry ~cmd ?kernel ?(progress_mode = Progress.Auto) trace metrics
    openmetrics f =
  Ledger.begin_run ~argv:(Array.to_list Sys.argv);
  Option.iter (fun k -> Ledger.note_kernel (Ops.kernel_name k)) kernel;
  Option.iter (fun p -> Ledger.note_artifact ~kind:"trace" p) trace;
  Progress.set_mode progress_mode;
  let oc = Option.map open_out trace in
  (match oc with
  | Some oc -> Telemetry.set_sink (Telemetry.jsonl_sink oc)
  | None -> ());
  Telemetry.message (Printf.sprintf "slocal %s" cmd);
  let finished = ref false in
  let finish outcome =
    if not !finished then begin
      finished := true;
      Telemetry.sample_gc ();
      Telemetry.emit_counters ();
      Telemetry.emit_histograms ();
      if metrics then Format.eprintf "%a@?" Telemetry.pp_summary ();
      (match openmetrics with
      | None -> ()
      | Some "-" -> print_string (Openmetrics.render ())
      | Some file -> (
          try
            Openmetrics.write_file file;
            Ledger.note_artifact ~kind:"openmetrics" file
          with Sys_error msg ->
            Format.eprintf "openmetrics: cannot write %s: %s@." file msg));
      Ledger.finish_run ~outcome;
      Progress.set_mode Progress.Off;
      Telemetry.set_sink Telemetry.null_sink;
      Option.iter close_out oc
    end
  in
  at_exit (fun () -> finish "exit");
  match f () with
  | v ->
      finish "ok";
      v
  | exception e -> (
      match Ops.error_message e with
      | None ->
          finish "error";
          raise e
      | Some msg ->
          Ledger.note_exit 2;
          finish "error";
          Format.print_flush ();
          Format.eprintf "slocal %s: %s@." cmd msg;
          exit 2)

(* The observability flags of re, solve, sequence, sweep and audit
   as one term, and [with_telemetry] over them. *)
let obs_term =
  Term.(
    const (fun t m o p -> (t, m, o, p))
    $ trace_opt $ metrics_flag $ openmetrics_opt $ progress_flag)

let with_obs ~cmd ?kernel (trace, metrics, openmetrics, progress) =
  with_telemetry ~cmd ?kernel
    ~progress_mode:(if progress then Progress.Forced else Progress.Auto)
    trace metrics openmetrics

let yes_no = function
  | Some true -> "yes"
  | Some false -> "no"
  | None -> "undecided"

let kernel_opt =
  Arg.(
    value
    & opt (enum Ops.kernels) Re_step.Fast
    & info [ "kernel" ] ~docv:"KERNEL"
        ~doc:
          "Round elimination kernel: $(b,fast) (packed configuration keys, \
           memoized constraint queries, subset-lattice maximality prune, \
           cross-invocation result cache — the default) or $(b,reference) \
           (the original bottom-up enumerate-then-filter oracle).")

let graph_arg pos_idx =
  let doc =
    "Graph spec: cycle:K (C_2K 2-colored), kbb:A:B, cover-petersen, \
     cover-random:N:D:SEED, biregular:NW:NB:DW:DB:SEED."
  in
  Arg.(required & pos pos_idx (some string) None & info [] ~docv:"GRAPH" ~doc)

(* ------------------------------------------------------------------ *)

let diagram_cmd =
  let run spec =
    let p = parse_problem spec in
    print_string (Problem.to_string p);
    Format.printf "@.black diagram:@.%a@." (Diagram.pp p.Problem.alphabet)
      (Diagram.black p);
    Format.printf "@.white diagram:@.%a@." (Diagram.pp p.Problem.alphabet)
      (Diagram.white p);
    let closed = Diagram.right_closed_sets (Diagram.black p) in
    Format.printf "@.%d right-closed label-sets (black):@." (List.length closed);
    List.iter
      (fun s ->
        Format.printf "  %s@." (Re_step.set_name p.Problem.alphabet s))
      closed
  in
  Cmd.v
    (Cmd.info "diagram" ~doc:"Print a problem and its strength diagrams")
    Term.(const run $ problem_arg)

let re_cmd =
  let steps =
    Arg.(value & opt int 1 & info [ "steps"; "k" ] ~doc:"Number of RE steps.")
  in
  let run spec steps kernel jobs obs =
    with_obs ~cmd:"re" ~kernel obs @@ fun () ->
    let r = Ops.re ~jobs ~kernel ~steps (parse_problem spec) in
    List.iteri
      (fun i p ->
        if i > 0 then Format.printf "@.--- after RE step %d ---@." i;
        print_string (Problem.to_string p))
      r.Ops.problems;
    Format.printf "@.fixed point (up to renaming): %b@."
      (r.Ops.fixed_point = Some true)
  in
  Cmd.v
    (Cmd.info "re" ~doc:"Apply round elimination steps")
    Term.(
      const run $ problem_arg $ steps $ kernel_opt $ jobs_opt $ obs_term)

let lift_cmd =
  let delta =
    Arg.(required & opt (some int) None & info [ "delta" ] ~doc:"Support white degree Δ.")
  in
  let r =
    Arg.(required & opt (some int) None & info [ "r" ] ~doc:"Support black degree r.")
  in
  let run spec delta r trace metrics =
    with_telemetry ~cmd:"lift" trace metrics None @@ fun () ->
    let p = parse_problem spec in
    let l = Core.Lift.lift ~delta ~r p in
    print_string (Problem.to_string l.Core.Lift.problem);
    Format.printf "@.label meanings:@.";
    Array.iteri
      (fun i s ->
        Format.printf "  %s = {%s}@."
          (Alphabet.name l.Core.Lift.problem.Problem.alphabet i)
          (String.concat ","
             (List.map
                (Alphabet.name p.Problem.alphabet)
                (Slocal_util.Bitset.to_list s))))
      l.Core.Lift.meaning
  in
  Cmd.v
    (Cmd.info "lift" ~doc:"Print lift_{Δ,r}(Π) (Definition 3.1)")
    Term.(const run $ problem_arg $ delta $ r $ trace_opt $ metrics_flag)

let solve_cmd =
  let lift_flag =
    Arg.(value & flag & info [ "lift" ] ~doc:"Solve the lift of the problem (0-round solvability).")
  in
  let budget =
    Arg.(value & opt int 20_000_000 & info [ "budget" ] ~doc:"Search node budget.")
  in
  let portfolio_opt =
    Arg.(
      value & opt int 1
      & info [ "portfolio" ] ~docv:"K"
          ~doc:
            "Race $(docv) search starts with diverse variable orderings \
             (start 0 is the default BFS ordering) over the --jobs pool; \
             the reported verdict is that of the lowest-indexed decisive \
             start — deterministic for each $(docv), whatever the width or \
             schedule (DESIGN.md §9).  Per-start node statistics are \
             schedule-dependent, so the effort lines are omitted.")
  in
  let run spec gspec lift_flag budget jobs portfolio obs =
    with_obs ~cmd:"solve" obs @@ fun () ->
    let p = parse_problem spec in
    let g = parse_graph gspec in
    let problem =
      if lift_flag then
        (Core.Zero_round.lift_of_support g p).Core.Lift.problem
      else p
    in
    (match Girth.girth (Bipartite.graph g) with
    | None -> Format.printf "support: n=%d acyclic@." (Bipartite.n g)
    | Some girth -> Format.printf "support: n=%d girth=%d@." (Bipartite.n g) girth);
    let r = Ops.solve ~max_nodes:budget ~jobs ~starts:portfolio g problem in
    (* A portfolio prints only schedule-independent facts: the verdict,
       the checker bit and the winning start index.  Its aggregate
       effort counters depend on cancellation timing and stay out of
       stdout (they still reach --metrics/--trace). *)
    (match (r.Ops.outcome, r.Ops.stats) with
    | Solver.Solution s, stats ->
        Format.printf "SOLVABLE (checker: %b%s)@."
          (Checker.is_solution g problem s)
          (if stats <> None then ""
           else
             Printf.sprintf "; portfolio start %d of %d"
               (Option.value r.Ops.start ~default:(-1))
               portfolio)
    | Solver.No_solution, Some _ -> Format.printf "NO SOLUTION@."
    | Solver.No_solution, None ->
        Format.printf "NO SOLUTION (portfolio of %d starts)@." portfolio
    | Solver.Budget_exceeded, Some _ -> Format.printf "UNDECIDED (budget)@."
    | Solver.Budget_exceeded, None ->
        Format.printf "UNDECIDED (budget; portfolio of %d starts)@." portfolio);
    Option.iter
      (fun st ->
        Format.printf
          "search effort: %d nodes, %d backtracks, %d forward-checking prunes@."
          st.Solver.nodes st.Solver.backtracks st.Solver.fc_prunes;
        if st.Solver.budget_exhausted then
          Format.printf
            "budget of %d nodes was the limiting factor; raise --budget to \
             decide@."
            st.Solver.max_nodes
        else
          Format.printf "budget: %d of %d nodes used (not limiting)@."
            st.Solver.nodes st.Solver.max_nodes)
      r.Ops.stats
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Decide bipartite solvability on a concrete graph")
    Term.(
      const run $ problem_arg $ graph_arg 1 $ lift_flag $ budget $ jobs_opt
      $ portfolio_opt $ obs_term)

let bounds_cmd =
  let n = Arg.(value & opt float 1e9 & info [ "n" ] ~doc:"Number of nodes.") in
  let run spec n =
    (match String.split_on_char ':' spec with
    | [ "matching"; d'; x; y ] ->
        let delta' = int_of_string d' in
        let b =
          Core.Bounds.matching ~delta:(5 * delta') ~delta' ~x:(int_of_string x)
            ~y:(int_of_string y) ~eps:0.1 ~n
        in
        Format.printf "x-maximal y-matching, Δ'=%d: det >= %.2f, rand >= %.2f, upper ~ %.2f@."
          delta' b.Core.Bounds.deterministic b.Core.Bounds.randomized
          (Option.value b.Core.Bounds.upper ~default:nan)
    | [ "arb"; d; d'; a; c ] ->
        let b =
          Core.Bounds.arbdefective ~delta:(int_of_string d)
            ~delta':(int_of_string d') ~alpha:(int_of_string a)
            ~c:(int_of_string c) ~eps:0.25 ~n
        in
        Format.printf "arbdefective: det >= %.2f, rand >= %.2f, upper ~ %.2f@."
          b.Core.Bounds.deterministic b.Core.Bounds.randomized
          (Option.value b.Core.Bounds.upper ~default:nan)
    | [ "ruling"; d; d'; a; c; beta ] ->
        let b =
          Core.Bounds.ruling_set ~delta:(int_of_string d)
            ~delta':(int_of_string d') ~alpha:(int_of_string a)
            ~c:(int_of_string c) ~beta:(int_of_string beta) ~eps:0.25 ~cbig:2.
            ~n
        in
        Format.printf "ruling set: det >= %.2f, rand >= %.2f, upper ~ %.2f@."
          b.Core.Bounds.deterministic b.Core.Bounds.randomized
          (Option.value b.Core.Bounds.upper ~default:nan)
    | [ "mis" ] ->
        let c = Core.Bounds.mis_vs_chromatic ~n in
        Format.printf
          "MIS corollary at n=%.0f: Δ'=%.1f Δ=%.1f lower=%.2f χ-upper=%.2f@."
          n c.Core.Bounds.delta' c.Core.Bounds.delta c.Core.Bounds.lower_bound
          c.Core.Bounds.chromatic_upper
    | _ -> invalid_arg "bounds spec: matching:D':X:Y | arb:D:D':A:C | ruling:D:D':A:C:B | mis");
    ()
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc:"Bound spec.")
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Evaluate the paper's bound formulas")
    Term.(const run $ spec_arg $ n)

let sequence_cmd =
  let steps =
    Arg.(value & opt int 2 & info [ "steps"; "k" ] ~doc:"Number of RE iterations.")
  in
  let run spec steps kernel jobs obs =
    with_obs ~cmd:"sequence" ~kernel obs @@ fun () ->
    let r =
      Ops.sequence ~jobs ~kernel ~max_nodes:5_000_000 ~steps
        (parse_problem spec)
    in
    List.iteri
      (fun i q ->
        Format.printf "Π_%d: %d labels, %d white / %d black configurations@." i
          (Alphabet.size q.Problem.alphabet)
          (Constr.size q.Problem.white)
          (Constr.size q.Problem.black))
      r.Ops.sequence;
    List.iter
      (fun (st : Sequence.step) ->
        Format.printf "step %d relaxation-of-RE check: %s@." st.Sequence.index
          (match st.Sequence.verified with
          | Some true -> "verified"
          | Some false -> "refuted"
          | None -> "budget"))
      r.Ops.checks;
    Format.printf "lower-bound sequence: %s@." (yes_no r.Ops.lower_bound)
  in
  Cmd.v
    (Cmd.info "sequence"
       ~doc:"Iterate RE and machine-check the lower-bound sequence")
    Term.(
      const run $ problem_arg $ steps $ kernel_opt $ jobs_opt $ obs_term)

let stats_cmd =
  let graph_opt =
    let doc =
      "Optional graph spec (same syntax as solve); when given, the lift of \
       the problem onto it is built and solved so the solver and lift \
       counters fire too."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"GRAPH" ~doc)
  in
  let re_steps =
    Arg.(
      value & opt int 1
      & info [ "re-steps" ] ~doc:"Number of RE steps in the workload.")
  in
  let budget =
    Arg.(
      value & opt int 20_000_000 & info [ "budget" ] ~doc:"Search node budget.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print a machine-readable snapshot (schema slocal.stats/1) to \
             stdout instead of the human summary.")
  in
  let run spec gspec re_steps budget kernel trace metrics openmetrics json =
    if json && openmetrics = Some "-" then begin
      prerr_endline
        "stats: --json and --openmetrics - both claim stdout; give \
         --openmetrics a FILE";
      exit 2
    end;
    (* Progress is stderr-only, but keep --json runs fully quiet. *)
    with_telemetry ~cmd:"stats" ~kernel
      ~progress_mode:(if json then Progress.Off else Progress.Auto)
      trace metrics openmetrics
    @@ fun () ->
    let p = parse_problem spec in
    let q = Ops.last (Ops.re ~kernel ~fixed_point:false ~steps:re_steps p) in
    if not json then
      Format.printf
        "after %d RE step(s): %d labels, %d white / %d black configurations@."
        re_steps
        (Alphabet.size q.Problem.alphabet)
        (Constr.size q.Problem.white)
        (Constr.size q.Problem.black);
    let lift_result =
      match gspec with
      | None -> None
      | Some gs ->
          let g = parse_graph gs in
          let l = Core.Zero_round.lift_of_support g p in
          let r = Ops.solve ~max_nodes:budget g l.Core.Lift.problem in
          let nodes =
            match r.Ops.stats with Some st -> st.Solver.nodes | None -> 0
          in
          let verdict =
            yes_no
              (match r.Ops.outcome with
              | Solver.Solution _ -> Some true
              | Solver.No_solution -> Some false
              | Solver.Budget_exceeded -> None)
          in
          if not json then
            Format.printf "lift solvable on support: %s (%d nodes explored)@."
              (if verdict = "undecided" then "undecided (budget)" else verdict)
              nodes;
          Some (verdict, nodes)
    in
    let cache_pair hits misses =
      ( Telemetry.value (Telemetry.counter hits),
        Telemetry.value (Telemetry.counter misses) )
    in
    let re_cache = cache_pair "re.cache_hits" "re.cache_misses" in
    let constr_cache = cache_pair "constr.memo_hits" "constr.memo_misses" in
    Telemetry.sample_gc ();
    if json then begin
      let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
      let cache (h, m) = ints [ ("hits", h); ("misses", m) ] in
      let counters, gauges =
        List.fold_left
          (fun (cs, gs) (nm, kd, v) ->
            if v = 0 then (cs, gs)
            else
              match kd with
              | Telemetry.Counter -> ((nm, v) :: cs, gs)
              | Telemetry.Gauge -> (cs, (nm, v) :: gs))
          ([], []) (Telemetry.kinds_snapshot ())
      in
      let histograms =
        List.map
          (fun (nm, h) ->
            ( nm,
              ints
                [
                  ("count", Telemetry.Histogram.count h);
                  ("sum", Telemetry.Histogram.sum h);
                  ("min", Telemetry.Histogram.min_value h);
                  ("max", Telemetry.Histogram.max_value h);
                  ("p50", Telemetry.Histogram.quantile h 0.5);
                  ("p90", Telemetry.Histogram.quantile h 0.9);
                  ("p99", Telemetry.Histogram.quantile h 0.99);
                ] ))
          (Telemetry.histogram_snapshot ())
      in
      let doc =
        Json.Obj
          ([
             ("schema", Json.String "slocal.stats/1");
             ("kernel", Json.String (Ops.kernel_name kernel));
             ( "workload",
               Json.Obj
                 ([
                    ("problem", Json.String p.Problem.name);
                    ("re_steps", Json.Int re_steps);
                    ("labels", Json.Int (Alphabet.size q.Problem.alphabet));
                    ( "white_configs",
                      Json.Int (Constr.size q.Problem.white) );
                    ( "black_configs",
                      Json.Int (Constr.size q.Problem.black) );
                  ]
                 @
                 match lift_result with
                 | None -> []
                 | Some (verdict, nodes) ->
                     [
                       ("lift_solvable", Json.String verdict);
                       ("solver_nodes", Json.Int nodes);
                     ]) );
             ( "cache",
               Json.Obj
                 [ ("re", cache re_cache); ("constr", cache constr_cache) ] );
             ("counters", ints (List.rev counters));
             ("gauges", ints (List.rev gauges));
             ("histograms", Json.Obj histograms);
           ])
      in
      print_string (Json.to_string doc);
      print_newline ()
    end
    else begin
      (* Cache effectiveness of the fast kernel's two memo layers, with
         hit rates (the raw counters also appear in the summary below),
         then the GC gauges sampled at this moment. *)
      let rate_line what (h, m) =
        let rate =
          if h + m = 0 then "-"
          else
            Printf.sprintf "%.1f%%"
              (100. *. float_of_int h /. float_of_int (h + m))
        in
        Format.printf "  %-12s %9d hits %9d misses  (hit rate %s)@." what h m
          rate
      in
      Format.printf "cache effectiveness:@.";
      rate_line "RE result" re_cache;
      rate_line "constr memo" constr_cache;
      Format.printf "gc:@.";
      List.iter
        (fun g ->
          Format.printf "  %-24s %12d@." g
            (Telemetry.value (Telemetry.gauge g)))
        [
          "gc.allocated_bytes";
          "gc.minor_collections";
          "gc.major_collections";
          "gc.heap_words";
          "gc.top_heap_words";
          "gc.minor_words";
          "gc.promoted_words";
          "gc.major_words";
        ];
      Format.printf "%a@?" Telemetry.pp_summary ()
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a representative workload (RE steps, and optionally \
          lift-and-solve on a graph) and print the telemetry counter summary \
          (--json for slocal.stats/1, --openmetrics for the Prometheus text \
          exposition)")
    Term.(
      const run $ problem_arg $ graph_opt $ re_steps $ budget $ kernel_opt
      $ trace_opt $ metrics_flag $ openmetrics_opt $ json_flag)

(* ------------------------------------------------------------------ *)
(* Trace analysis: the read side of --trace. *)

let trace_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "A JSONL trace recorded with --trace (schema slocal.trace/4; \
             legacy slocal.trace/1, /2 and /3 files read with the absent \
             fields defaulted, /1 as single-domain).")
  in
  let request_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "request" ] ~docv:"ID"
          ~doc:
            "Profile only the events stamped with request $(docv) (the \
             slocal.trace/4 req field written inside a slocal serve \
             request window); the summary still lists every request \
             present in the file.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the profile as a slocal.profile/1 JSON document to $(docv) \
             ($(b,-) for stdout).")
  in
  let folded_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write folded stacks (flamegraph.pl / speedscope collapsed \
             format, weights in self-time nanoseconds) to $(docv) ($(b,-) \
             for stdout).")
  in
  let folded_alloc_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded-alloc" ] ~docv:"FILE"
          ~doc:
            "Write bytes-weighted folded stacks (collapsed format, weights \
             in self-allocation bytes — an allocation flamegraph) to \
             $(docv) ($(b,-) for stdout).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Rows in the hotspot table.")
  in
  let timeline_flag =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "Print the parallelism timeline instead of the profile: \
             per-domain lanes, the concurrent-busy-domains histogram, \
             utilization, serial fraction, and each lane's critical path.")
  in
  let alloc_flag =
    Arg.(
      value & flag
      & info [ "alloc" ]
          ~doc:
            "Print the allocation profile instead of the time profile: \
             self/cumulative allocation hotspots with per-name GC-work \
             counts, the allocation-weighted critical path, and per-domain \
             allocation-rate lanes.")
  in
  let write_output what file text =
    match file with
    | "-" -> print_string text
    | file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Format.eprintf "wrote %s %s@." what file
  in
  let run trace_file request json_out folded_out folded_alloc_out top timeline
      alloc =
    let profile = Profile.of_file ?request trace_file in
    (* An empty or fully-damaged trace means there is nothing to
       profile: a loud SL040 diagnostic and exit 1 instead of a
       silently empty report. *)
    if profile.Profile.event_count = 0 then begin
      Format.eprintf "%a@?"
        (Diagnostic.pp_report ~machine:false)
        [
          Diagnostic.error ~code:"SL040" ~subject:trace_file
            (match request with
            | Some id ->
                Printf.sprintf
                  "trace contains no events for request %S (requests \
                   present: %s)"
                  id
                  (match profile.Profile.requests with
                  | [] -> "none"
                  | reqs -> String.concat ", " (List.map fst reqs))
            | None ->
                Printf.sprintf
                  "trace contains no parseable events (%d damaged line(s) \
                   skipped)"
                  profile.Profile.skipped_lines);
        ];
      exit 1
    end;
    (match profile.Profile.schema with
    | Some s
      when s <> Telemetry.trace_schema_version
           && s <> "slocal.trace/1"
           && s <> "slocal.trace/2"
           && s <> "slocal.trace/3" ->
        Format.eprintf "trace report: warning: unknown trace schema %S@." s
    | Some _ -> ()
    | None ->
        Format.eprintf
          "trace report: warning: no trace_start line (truncated or foreign \
           file?)@.");
    if profile.Profile.skipped_lines > 0 then
      Format.eprintf "trace report: warning: skipped %d unparsable line(s)@."
        profile.Profile.skipped_lines;
    (match json_out with
    | Some file ->
        write_output "profile" file
          (Json.to_string
             (Profile.to_json ~source:(Filename.basename trace_file) profile)
          ^ "\n")
    | None -> ());
    (match folded_out with
    | Some file ->
        write_output "folded stacks" file
          (Profile.folded_to_string (Profile.folded profile))
    | None -> ());
    (match folded_alloc_out with
    | Some file ->
        write_output "folded alloc stacks" file
          (Profile.folded_to_string (Profile.folded_alloc profile))
    | None -> ());
    if timeline then Format.printf "%a@?" Profile.pp_timeline profile
    else if alloc then Format.printf "%a@?" (Profile.pp_alloc ~top) profile
    else if json_out = None && folded_out = None && folded_alloc_out = None
    then Format.printf "%a@?" (Profile.pp ~top) profile
  in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Profile a recorded trace: span-tree self times, hotspots, \
            critical path, counter attribution, provenance table; \
            --alloc for the self/cumulative allocation report; --timeline \
            for the multi-domain parallelism report")
      Term.(
        const run $ file_arg $ request_opt $ json_out $ folded_out
        $ folded_alloc_out $ top $ timeline_flag $ alloc_flag)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Analyze recorded telemetry traces")
    [ report ]

let export_cmd =
  let run spec =
    let p = parse_problem spec in
    print_string (Problem.to_string p)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Print a problem in the textual document format (re-readable by file:PATH)")
    Term.(const run $ problem_arg)

(* ------------------------------------------------------------------ *)
(* The two-label zero-round sweep: 49 independent per-problem
   decisions on one support, each by both routes (the lift and the
   exhaustive 0-round search), fanned out over --jobs domains; the
   output is byte-identical whatever the width. *)

let sweep_cmd =
  let budget =
    Arg.(
      value & opt int 20_000_000
      & info [ "budget" ] ~doc:"Per-problem solver node budget (lift route).")
  in
  let constr_label alphabet c =
    String.concat "|"
      (List.map
         (fun m ->
           String.concat ""
             (List.map (Alphabet.name alphabet) (Slocal_util.Multiset.to_list m)))
         (Constr.configs c))
  in
  let run gspec jobs budget obs =
    with_obs ~cmd:"sweep" obs @@ fun () ->
    let g = parse_graph gspec in
    let problems = Core.Zero_round.two_label_problems () in
    let results =
      Core.Zero_round.decide_batch ~jobs ~max_nodes:budget g problems
    in
    Format.printf "two-label 0-round sweep: %d problems on %s@."
      (List.length problems) gspec;
    Format.printf "  %-12s %-12s %10s %10s %6s@." "white" "black" "lift"
      "search" "agree";
    List.iter2
      (fun p (l, s) ->
        Format.printf "  %-12s %-12s %10s %10s %6s@."
          (constr_label p.Problem.alphabet p.Problem.white)
          (constr_label p.Problem.alphabet p.Problem.black)
          (yes_no l) (yes_no s)
          (if l = s then "yes" else "NO"))
      problems results;
    let count f = List.length (List.filter f results) in
    let agreements = count (fun (l, s) -> l = s) in
    Format.printf "%d/%d problems 0-round solvable@."
      (count (fun (l, _) -> l = Some true))
      (List.length problems);
    Format.printf "routes agree on %d/%d problems@." agreements
      (List.length problems);
    if agreements < List.length problems then begin
      Format.eprintf
        "sweep: the lift and search routes disagree — kernel bug@.";
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Decide 0-round solvability for the whole two-label problem space \
          on one support, optionally in parallel (--jobs)")
    Term.(
      const run $ graph_arg 0 $ jobs_opt $ budget $ obs_term)

(* ------------------------------------------------------------------ *)
(* Static analysis: lint and audit.  Exit-code contract (documented in
   the README): 0 clean, 1 worst diagnostic is a warning, 2 errors. *)

let machine_flag =
  Arg.(value & flag
       & info [ "machine" ]
           ~doc:"Machine-readable output: one tab-separated line per diagnostic.")

let delta_opt =
  Arg.(value & opt (some int) None
       & info [ "delta" ] ~doc:"Target support white degree Δ for lift checks.")

let r_opt =
  Arg.(value & opt (some int) None
       & info [ "r" ] ~doc:"Target support black degree r for lift checks.")

let report_and_exit ~machine diags =
  Format.printf "%a@?" (Diagnostic.pp_report ~machine) diags;
  let code = Diagnostic.exit_code diags in
  Ledger.note_exit code;
  exit code

let lint_cmd =
  let specs =
    let doc =
      "Problem specs (same syntax as other subcommands) or paths to problem \
       documents.  A bare path to an existing file is linted as a document."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PROBLEM" ~doc)
  in
  let codes_flag =
    Arg.(value & flag
         & info [ "codes" ] ~doc:"Print the diagnostic code table and exit.")
  in
  let re_steps =
    Arg.(value & opt int 1
         & info [ "re-steps" ]
             ~doc:"Also check the grounding invariants of this many RE steps \
                   (0 disables).")
  in
  let telemetry_flag =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"Check that every telemetry metric name registered in the \
                   library sources appears in the DESIGN.md §6 name table \
                   (SL041).")
  in
  let design_opt =
    Arg.(value & opt string "DESIGN.md"
         & info [ "design" ] ~docv:"FILE"
             ~doc:"Design document holding the metric name table (with \
                   --telemetry).")
  in
  let src_opt =
    Arg.(value & opt_all string [ "lib"; "bin"; "bench" ]
         & info [ "src" ] ~docv:"DIR"
             ~doc:"Source directory to scan (repeatable, with --telemetry and \
                   --domains).")
  in
  let domains_flag =
    Arg.(value & flag
         & info [ "domains" ]
             ~doc:"Run the domain-safety static analysis over the OCaml \
                   sources: inventory module-scope mutable state and \
                   nondeterminism sources (SL050-SL055) and require every \
                   finding to carry a staticcheck classification (pragma or \
                   STATICCHECK.md row); stale annotations are SL056.")
  in
  let slp_flag =
    Arg.(value & flag
         & info [ "slp" ]
             ~doc:"Treat the positional arguments as problem-document paths \
                   and run only the fast source lint on them: unused labels \
                   and within-line duplicate configurations (SL057), plus \
                   SL000 on parse failure.")
  in
  let report_opt =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"With --domains: also write the machine-readable \
                   slocal.staticcheck/1 JSON inventory to $(docv).")
  in
  let inventory_flag =
    Arg.(value & flag
         & info [ "inventory" ]
             ~doc:"With --domains: print the human inventory table (every \
                   finding with its classification) before the diagnostics.")
  in
  let run specs delta r machine codes re_steps telemetry design src_dirs
      domains slp report inventory =
    if codes then Format.printf "%a@?" Chk.pp_code_table ()
    else
      with_telemetry ~cmd:"lint" None false None
      @@ fun () ->
      let domains = domains || report <> None || inventory in
      (* Plain [slocal lint] with no arguments: the repository
         self-checks (domain-safety inventory + telemetry name table). *)
      let domains, telemetry =
        if specs = [] && not (domains || telemetry || slp) then (true, true)
        else (domains, telemetry)
      in
      let domain_diags =
        if not domains then []
        else begin
          let findings, diags = Staticcheck.analyze_files ~src_dirs () in
          if inventory then
            Format.printf "%a" Staticcheck.pp_inventory findings;
          (match report with
          | None -> ()
          | Some file -> (
              let json = Staticcheck.report_json ~roots:src_dirs findings in
              try
                let oc = open_out file in
                output_string oc (Json.to_string json);
                output_char oc '\n';
                close_out oc;
                Ledger.note_artifact ~kind:"staticcheck" file
              with Sys_error msg ->
                Format.eprintf "staticcheck: cannot write %s: %s@." file msg));
          diags
        end
      in
      let telemetry_diags =
        if telemetry then Source.lint_telemetry_files ~design ~src_dirs
        else []
      in
      let diags =
        if slp then List.concat_map Source.lint_slp_file specs
        else
          List.concat_map
            (fun spec ->
              if Sys.file_exists spec && not (Sys.is_directory spec) then
                Chk.lint_file ?delta ?r spec
              else
                match String.index_opt spec ':' with
                | Some 4 when String.sub spec 0 4 = "file" ->
                    Chk.lint_file ?delta ?r
                      (String.sub spec 5 (String.length spec - 5))
                | _ -> (
                    match parse_problem spec with
                    | p ->
                        Chk.lint_problem ?delta ?r p
                        @ Chk.lint_re_chain p ~steps:re_steps
                    | exception Invalid_argument msg ->
                        [ Diagnostic.error ~code:"SL000" ~subject:spec
                            ("unparsable problem: " ^ msg) ]))
            specs
      in
      report_and_exit ~machine (domain_diags @ telemetry_diags @ diags)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify formalism invariants (diagrams, lifts, \
             condensed syntax, telemetry name inventory, domain-safety of \
             the sources)")
    Term.(const run $ specs $ delta_opt $ r_opt $ machine_flag $ codes_flag
          $ re_steps $ telemetry_flag $ design_opt $ src_opt $ domains_flag
          $ slp_flag $ report_opt $ inventory_flag)

let audit_cmd =
  let k =
    Arg.(value & opt int 1
         & info [ "k" ] ~doc:"Lower-bound sequence length ending in PROBLEM.")
  in
  let budget =
    Arg.(value & opt int 20_000_000
         & info [ "budget" ] ~doc:"Solver search-node budget for the analysis.")
  in
  let recheck_budget =
    Arg.(value & opt int 2_000_000
         & info [ "recheck-budget" ]
             ~doc:"Search-node budget for the independent unsolvability \
                   re-search (0 disables).")
  in
  let run spec gspec k budget recheck_budget jobs machine obs =
    with_obs ~cmd:"audit" obs @@ fun () ->
    let p = parse_problem spec in
    let r =
      Ops.audit ~max_nodes:budget ~recheck_budget ~jobs ~k (parse_graph gspec) p
    in
    Format.printf "%a@." Core.Framework.pp_result r.Ops.analysis;
    report_and_exit ~machine r.Ops.diagnostics
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run the Theorem 3.4 pipeline and re-validate the resulting \
             certificate")
    Term.(const run $ problem_arg $ graph_arg 1 $ k $ budget $ recheck_budget
          $ jobs_opt $ machine_flag $ obs_term)

let gen_cmd =
  let n = Arg.(value & opt int 50 & info [ "n" ] ~doc:"Target node count.") in
  let d = Arg.(value & opt int 3 & info [ "d" ] ~doc:"Degree.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run n d seed trace metrics =
    with_telemetry ~cmd:"gen" trace metrics None @@ fun () ->
    Ledger.note_seed seed;
    Telemetry.message (Printf.sprintf "gen seed=%d n=%d d=%d" seed n d);
    let rng = Slocal_util.Prng.create seed in
    let c = Gen.high_girth_low_independence rng ~n ~d () in
    let g = c.Gen.graph in
    Format.printf
      "generated %d-regular graph: n=%d girth=%s target=%d feasible=%b \
       independence<=%d (%s)@."
      d (Graph.n g)
      (match c.Gen.girth with None -> "∞" | Some x -> string_of_int x)
      c.Gen.target_girth c.Gen.girth_feasible c.Gen.independence_upper
      (if c.Gen.independence_exact then "exact" else "matching bound");
    Format.printf "Lemma 2.1 target: girth >= ε·log_Δ n = %.2f·ε, independence <= α·%.2f@."
      (log (float_of_int (Graph.n g)) /. log (float_of_int d))
      (Slocal_graph.Independence.upper_bound_alon ~n:(Graph.n g) ~delta:d
         ~alpha:1.0)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a Lemma 2.1-style support graph")
    Term.(const run $ n $ d $ seed $ trace_opt $ metrics_flag)

(* ------------------------------------------------------------------ *)
(* Run-ledger maintenance: the read side of the slocal.run/1 records
   that every kernel-facing invocation appends. *)

let runs_cmd =
  let ledger_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Ledger file to operate on (default: $(b,SLOCAL_LEDGER) or \
             .slocal/runs.jsonl).")
  in
  let resolve ledger =
    match ledger with
    | Some p -> p
    | None -> (
        match Ledger.default_path () with
        | Some p -> p
        | None ->
            prerr_endline
              "runs: the ledger is disabled (SLOCAL_LEDGER=off); pass --ledger \
               FILE";
            exit 2)
  in
  let load ledger =
    let path = resolve ledger in
    if not (Sys.file_exists path) then
      (path, { Ledger.records = []; skipped = 0; foreign = 0 })
    else
      match Ledger.read_file path with
      | r -> (path, r)
      | exception Sys_error msg ->
          Printf.eprintf "runs: cannot read %s: %s\n" path msg;
          exit 2
  in
  let warn_skipped path (r : Ledger.read_result) =
    if r.Ledger.skipped > 0 then
      Format.eprintf "runs: %s: skipped %d damaged line(s)@." path
        r.Ledger.skipped;
    if r.Ledger.foreign > 0 then
      Format.eprintf
        "runs: %s: ignored %d record(s) of other schemas (e.g. \
         slocal.request/1)@."
        path r.Ledger.foreign
  in
  let iso t =
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let argv_line (r : Ledger.record) = String.concat " " r.Ledger.argv in
  let truncate n s = if String.length s <= n then s else String.sub s 0 (n - 1) ^ "…" in
  let find_or_exit read key =
    match Ledger.find read key with
    | Ok r -> r
    | Error msg ->
        Printf.eprintf "runs: %s\n" msg;
        exit 2
  in
  let list_cmd =
    let run ledger =
      let path, read = load ledger in
      warn_skipped path read;
      match read.Ledger.records with
      | [] -> Format.printf "no runs recorded in %s@." path
      | records ->
          Format.printf "%-4s %-13s %-20s %9s %8s %-5s %s@." "#" "id" "started"
            "wall" "outcome" "exit" "argv";
          List.iteri
            (fun i (r : Ledger.record) ->
              Format.printf "%-4d %-13s %-20s %8.2fs %8s %-5d %s@." (i + 1)
                r.Ledger.id (iso r.Ledger.started_at) (Ledger.wall_seconds r)
                r.Ledger.outcome r.Ledger.exit_code
                (truncate 48 (argv_line r)))
            records
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List the recorded runs, oldest first")
      Term.(const run $ ledger_opt)
  in
  let show_cmd =
    let id_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"RUN" ~doc:"Run designator: 1-based index or id prefix.")
    in
    let run ledger key =
      let path, read = load ledger in
      warn_skipped path read;
      let r = find_or_exit read key in
      Format.printf "run %s@." r.Ledger.id;
      Format.printf "  argv:     %s@." (argv_line r);
      Format.printf "  started:  %s@." (iso r.Ledger.started_at);
      Format.printf "  finished: %s (wall %.2fs)@." (iso r.Ledger.finished_at)
        (Ledger.wall_seconds r);
      Format.printf "  outcome:  %s (exit %d)@." r.Ledger.outcome
        r.Ledger.exit_code;
      Option.iter (Format.printf "  kernel:   %s@.") r.Ledger.kernel;
      Option.iter (Format.printf "  seed:     %d@.") r.Ledger.seed;
      if r.Ledger.alloc_b > 0 || r.Ledger.majors > 0 then
        Format.printf "  gc:       %dB allocated, %d major cycle(s), peak heap %d words@."
          r.Ledger.alloc_b r.Ledger.majors r.Ledger.top_heap_words;
      if r.Ledger.problems <> [] then begin
        Format.printf "  problems:@.";
        List.iter
          (fun (nm, h) -> Format.printf "    %-24s hash %d@." nm h)
          r.Ledger.problems
      end;
      if r.Ledger.artifacts <> [] then begin
        Format.printf "  artifacts:@.";
        List.iter
          (fun (k, p) -> Format.printf "    %-12s %s@." k p)
          r.Ledger.artifacts
      end;
      if r.Ledger.counters <> [] then begin
        Format.printf "  counters:@.";
        List.iter
          (fun (nm, v) -> Format.printf "    %-36s %12d@." nm v)
          r.Ledger.counters
      end;
      if r.Ledger.gauges <> [] then begin
        Format.printf "  gauges:@.";
        List.iter
          (fun (nm, v) -> Format.printf "    %-36s %12d@." nm v)
          r.Ledger.gauges
      end;
      if r.Ledger.histograms <> [] then begin
        Format.printf "  histograms:@.";
        Format.printf "    %-36s %8s %10s %10s %10s %10s@." "" "count" "p50"
          "p90" "p99" "max";
        List.iter
          (fun (nm, hs) ->
            Format.printf "    %-36s %8d %10d %10d %10d %10d@." nm
              hs.Ledger.hs_count hs.Ledger.hs_p50 hs.Ledger.hs_p90
              hs.Ledger.hs_p99 hs.Ledger.hs_max)
          r.Ledger.histograms
      end
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Render one recorded run in full")
      Term.(const run $ ledger_opt $ id_arg)
  in
  let diff_cmd =
    let id_a =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"A" ~doc:"Baseline run (index or id prefix).")
    in
    let id_b =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"B" ~doc:"Comparison run (index or id prefix).")
    in
    let run ledger key_a key_b =
      let path, read = load ledger in
      warn_skipped path read;
      let a = find_or_exit read key_a and b = find_or_exit read key_b in
      Format.printf "A: %s  %s@." a.Ledger.id (truncate 60 (argv_line a));
      Format.printf "B: %s  %s@." b.Ledger.id (truncate 60 (argv_line b));
      Format.printf "wall: %.2fs -> %.2fs@." (Ledger.wall_seconds a)
        (Ledger.wall_seconds b);
      (* Allocation delta between the runs (0 on pre-alloc records:
         skip rather than print a misleading -100%). *)
      if a.Ledger.alloc_b > 0 || b.Ledger.alloc_b > 0 then begin
        let pct =
          if a.Ledger.alloc_b = 0 then ""
          else
            Printf.sprintf " (%+.1f%%)"
              (100.
              *. float_of_int (b.Ledger.alloc_b - a.Ledger.alloc_b)
              /. float_of_int a.Ledger.alloc_b)
        in
        Format.printf "alloc: %dB -> %dB%s@." a.Ledger.alloc_b b.Ledger.alloc_b
          pct;
        Format.printf "majors: %d -> %d; peak heap %d -> %d words@."
          a.Ledger.majors b.Ledger.majors a.Ledger.top_heap_words
          b.Ledger.top_heap_words
      end;
      (match (a.Ledger.kernel, b.Ledger.kernel) with
      | Some ka, Some kb when ka <> kb ->
          Format.printf "kernel: %s -> %s@." ka kb
      | _ -> ());
      if
        a.Ledger.problems <> [] && b.Ledger.problems <> []
        && a.Ledger.problems <> b.Ledger.problems
      then
        Format.printf
          "note: the runs hashed different problems (see runs show)@.";
      match Ledger.diff a b with
      | [] -> Format.printf "counters: identical@."
      | deltas ->
          Format.printf "%-36s %12s %12s %12s@." "counter" "A" "B" "delta";
          List.iter
            (fun (nm, va, vb) ->
              Format.printf "%-36s %12d %12d %+12d@." nm va vb (vb - va))
            deltas
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two recorded runs (wall time, allocation and counter \
            deltas)")
      Term.(const run $ ledger_opt $ id_a $ id_b)
  in
  let gc_cmd =
    let keep =
      Arg.(
        value & opt int 200
        & info [ "keep" ] ~docv:"N" ~doc:"Newest records to keep.")
    in
    let run ledger keep =
      let path = resolve ledger in
      if not (Sys.file_exists path) then
        Format.printf "no ledger at %s; nothing to do@." path
      else
        match Ledger.gc ~path ~keep with
        | Ok (kept, dropped) ->
            Format.printf "kept %d record(s), dropped %d (records beyond \
                           --keep %d and damaged lines)@."
              kept dropped keep
        | Error msg ->
            Printf.eprintf "runs gc: %s\n" msg;
            exit 2
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Compact the ledger: keep the newest N records, drop damaged \
               lines (atomic rewrite)")
      Term.(const run $ ledger_opt $ keep)
  in
  Cmd.group
    (Cmd.info "runs"
       ~doc:"Inspect the slocal.run/1 ledger appended by kernel-facing \
             subcommands")
    [ list_cmd; show_cmd; diff_cmd; gc_cmd ]

(* ------------------------------------------------------------------ *)
(* The serve daemon and its client: one warm process (RE cache, memo
   tables, telemetry registry) answering JSONL requests over a
   Unix-domain socket, each work request inside a
   Telemetry.with_request window (DESIGN.md §10). *)

let socket_opt =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let record_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Append one slocal.request/1 record per work request (its cost \
             summary plus the request body) to $(docv), for later \
             $(b,slocal client --replay).")
  in
  let heartbeat_flag =
    Arg.(
      value & flag
      & info [ "heartbeat" ]
          ~doc:
            "Emit throttled [serve] heartbeat lines (uptime, requests \
             served, RE-cache hit rate) to stderr.")
  in
  let run socket jobs record heartbeat trace metrics openmetrics =
    with_telemetry ~cmd:"serve" trace metrics openmetrics @@ fun () ->
    let config =
      {
        Serve.jobs;
        record;
        heartbeat = (if heartbeat then Some stderr else None);
        heartbeat_interval_ns =
          Serve.default_config.Serve.heartbeat_interval_ns;
      }
    in
    let st = Serve.create ~config () in
    Format.eprintf "serve: listening on %s (jobs=%d)@." socket jobs;
    Serve.serve ~socket st;
    Format.eprintf "serve: shut down after %d request(s) (%d error(s))@."
      (Serve.served st) (Serve.errored st)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve re/sequence/solve/audit requests over a Unix socket, with a \
          warm RE cache and per-request observability")
    Term.(
      const run $ socket_opt $ jobs_opt $ record_opt $ heartbeat_flag
      $ trace_opt $ metrics_flag $ openmetrics_opt)

let client_cmd =
  let req_args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Request objects to send, one JSON value each (e.g. \
             '{\"op\":\"re\",\"problem\":\"mm:3\"}').")
  in
  let replay_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-send the request bodies of a slocal.request/1 file recorded \
             with $(b,slocal serve --record) and print each request's \
             wall/alloc numbers next to the recorded ones.")
  in
  let wait_opt =
    Arg.(
      value & opt float 5.0
      & info [ "wait" ] ~docv:"SECONDS"
          ~doc:
            "Keep retrying the connection for up to $(docv) seconds while \
             the daemon starts.")
  in
  let check_sum_flag =
    Arg.(
      value & flag
      & info [ "check-sum" ]
          ~doc:
            "After the batch, send a stats request and fail unless the \
             daemon reports check_sum=true: the per-request counter deltas \
             must sum exactly to the registry delta since daemon start (up \
             to the documented out-of-window serve.* counters).")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown request after the batch.")
  in
  let run socket wait requests replay check_sum shutdown =
    let conn =
      try Serve.connect ~wait_s:wait ~socket ()
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "client: cannot connect to %s: %s\n" socket
          (Unix.error_message e);
        exit 2
    in
    let failures = ref 0 in
    let is_true k j = Option.bind (Json.member k j) Json.as_bool = Some true in
    (* One round trip, reply printed; a transport failure counts. *)
    let send what req =
      match Serve.roundtrip conn req with
      | Ok resp ->
          print_endline (Json.to_string resp);
          Some resp
      | Error msg ->
          incr failures;
          Printf.eprintf "client: %s%s\n" what msg;
          None
    in
    let send_request ?recorded req =
      Option.iter
        (fun resp ->
          if not (is_true "ok" resp) then incr failures;
          match
            ( (recorded : Ledger.request_record option),
              Option.bind (Json.member "request" resp) (fun j ->
                  Result.to_option (Ledger.request_of_json j)) )
          with
          | Some prev, Some now ->
              Format.eprintf
                "replay %-8s %-8s wall %a -> %a  alloc %dB -> %dB  cache \
                 %d/%d -> %d/%d@."
                now.Ledger.rr_id now.Ledger.rr_op Telemetry.pp_duration
                (Int64.of_int prev.Ledger.rr_wall_ns)
                Telemetry.pp_duration
                (Int64.of_int now.Ledger.rr_wall_ns)
                prev.Ledger.rr_alloc_b now.Ledger.rr_alloc_b
                prev.Ledger.rr_cache_hits prev.Ledger.rr_cache_misses
                now.Ledger.rr_cache_hits now.Ledger.rr_cache_misses
          | _ -> ())
        (send "" req)
    in
    List.iter
      (fun s ->
        match Json.of_string s with
        | Error msg ->
            incr failures;
            Printf.eprintf "client: invalid request %S: %s\n" s msg
        | Ok j -> send_request j)
      requests;
    (match replay with
    | None -> ()
    | Some path ->
        let records, skipped = Ledger.read_requests_file path in
        let replayable =
          List.filter (fun rr -> rr.Ledger.rr_body <> None) records
        in
        let skipped = skipped + List.length records - List.length replayable in
        if skipped > 0 then
          Printf.eprintf
            "client: %s: skipped %d damaged or body-less line(s)\n" path
            skipped;
        List.iter
          (fun rr -> Option.iter (send_request ~recorded:rr) rr.Ledger.rr_body)
          replayable);
    let op name = Json.Obj [ ("op", Json.String name) ] in
    if check_sum then
      Option.iter
        (fun resp ->
          if Option.fold ~none:false ~some:(is_true "check_sum")
               (Json.member "result" resp)
          then prerr_endline "client: check-sum ok"
          else begin
            incr failures;
            prerr_endline "client: check-sum FAILED"
          end)
        (send "stats: " (op "stats"));
    if shutdown then ignore (send "shutdown: " (op "shutdown"));
    Serve.disconnect conn;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send JSONL requests (or replay a --record file) to a slocal \
          serve daemon")
    Term.(
      const run $ socket_opt $ wait_opt $ req_args $ replay_opt
      $ check_sum_flag $ shutdown_flag)

let () =
  let info =
    Cmd.info "slocal" ~version:"1.0.0"
      ~doc:"Round elimination and lower bounds in the Supported LOCAL model"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            diagram_cmd;
            re_cmd;
            lift_cmd;
            solve_cmd;
            bounds_cmd;
            gen_cmd;
            sequence_cmd;
            stats_cmd;
            sweep_cmd;
            runs_cmd;
            trace_cmd;
            export_cmd;
            lint_cmd;
            audit_cmd;
            serve_cmd;
            client_cmd;
          ]))
