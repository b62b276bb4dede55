(* slocal — a command-line interface to the Supported LOCAL framework.

   The work subcommands (re, sequence, solve, audit) map their flags
   onto one Slocal_serve.Ops call each and
   render the typed result as text: the same operations the serve
   daemon answers over its socket.  The kernel-facing subcommands share
   [with_telemetry] below (--trace, --metrics, --openmetrics,
   --progress, one slocal.request/1 record per run in the ledger;
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

(* Runs [f]; a failed operation (bad spec, bad parameter, unreadable
   file: [Ops.error_message]) is reported as "slocal CMD: MESSAGE" on
   stderr with exit code 2.  Any other exception is a bug and
   propagates. *)
let exit_on_failure ~cmd f =
  match f () with
  | v -> v
  | exception e -> (
      match Ops.error_message e with
      | None -> raise e
      | Some msg ->
          Format.print_flush ();
          Format.eprintf "slocal %s: %s@." cmd msg;
          exit 2)

(* Observability wrapper around every kernel-facing subcommand: opens
   the ledger context (one slocal.request/1 record per invocation,
   regardless of flags), installs the requested trace sink, arms the
   progress heartbeat and, on the way out, emits the final telemetry
   snapshots, the OpenMetrics exposition and the ledger record.  The
   teardown is registered with [at_exit] as well, because lint/audit
   exit from inside their run function ([Fun.protect] finalizers do
   not run across [exit]); the [finished] guard keeps the paths
   idempotent.  A failed operation goes through [exit_on_failure]
   after the ledger record is written. *)
let with_telemetry ~cmd ?(progress_mode = Progress.Auto) trace metrics
    openmetrics f =
  Ledger.begin_run ~op:cmd ~argv:(Array.to_list Sys.argv);
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
  (* Finishes the ledger record on early exit; one process, one run. *)
  at_exit (fun () -> finish "exit");
  exit_on_failure ~cmd @@ fun () ->
  match f () with
  | v ->
      finish "ok";
      v
  | exception e ->
      if Ops.error_message e <> None then Ledger.note_exit 2;
      finish "error";
      raise e

(* The observability flags of re, solve, sequence, sweep and audit
   as one term, and [with_telemetry] over them. *)
let obs_term =
  Term.(
    const (fun t m o p -> (t, m, o, p))
    $ trace_opt $ metrics_flag $ openmetrics_opt $ progress_flag)

let with_obs ~cmd (trace, metrics, openmetrics, progress) =
  with_telemetry ~cmd
    ~progress_mode:(if progress then Progress.Forced else Progress.Auto)
    trace metrics openmetrics

let yes_no = function
  | Some true -> "yes"
  | Some false -> "no"
  | None -> "undecided"

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
  let run spec steps obs =
    with_obs ~cmd:"re" obs @@ fun () ->
    let r = Ops.re ~steps (parse_problem spec) in
    List.iteri
      (fun i p ->
        if i > 0 then Format.printf "@.--- after RE step %d ---@." i;
        print_string (Problem.to_string p))
      r.Ops.problems;
    Format.printf "@.fixed point (up to renaming): %b@." r.Ops.fixed_point
  in
  Cmd.v
    (Cmd.info "re" ~doc:"Apply round elimination steps")
    Term.(const run $ problem_arg $ steps $ obs_term)

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
  let run spec gspec lift_flag budget obs =
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
    let r = Ops.solve ~max_nodes:budget g problem in
    (match r.Ops.outcome with
    | Solver.Solution s ->
        Format.printf "SOLVABLE (checker: %b)@." (Checker.is_solution g problem s)
    | Solver.No_solution -> Format.printf "NO SOLUTION@."
    | Solver.Budget_exceeded -> Format.printf "UNDECIDED (budget)@.");
    let st = r.Ops.stats in
    Format.printf "search effort: %d nodes, %d backtracks, %d forward-checking prunes@."
      st.Solver.nodes st.Solver.backtracks st.Solver.fc_prunes;
    if st.Solver.budget_exhausted then
      Format.printf
        "budget of %d nodes was the limiting factor; raise --budget to decide@."
        st.Solver.max_nodes
    else
      Format.printf "budget: %d of %d nodes used (not limiting)@." st.Solver.nodes
        st.Solver.max_nodes
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Decide bipartite solvability on a concrete graph")
    Term.(
      const run $ problem_arg $ graph_arg 1 $ lift_flag $ budget $ obs_term)

let bounds_cmd =
  let n = Arg.(value & opt float 1e9 & info [ "n" ] ~doc:"Number of nodes.") in
  let run spec n =
    exit_on_failure ~cmd:"bounds" @@ fun () ->
    let int_of_string = Ops.int_field spec in
    match String.split_on_char ':' spec with
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
    | _ ->
        invalid_arg
          (Printf.sprintf
             "unknown bounds spec %S (matching:D':X:Y | arb:D:D':A:C | \
              ruling:D:D':A:C:B | mis)"
             spec)
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
  let run spec steps obs =
    with_obs ~cmd:"sequence" obs @@ fun () ->
    let r = Ops.sequence ~max_nodes:5_000_000 ~steps (parse_problem spec) in
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
    Term.(const run $ problem_arg $ steps $ obs_term)

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
      & info [ "top" ] ~docv:"K" ~doc:"Rows in each hotspot table.")
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
  let run trace_file request folded_out folded_alloc_out top =
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
          "trace report: warning: no trace_start line (truncated file, or \
           not a trace?)@.");
    if profile.Profile.skipped_lines > 0 then
      Format.eprintf "trace report: warning: skipped %d unparsable line(s)@."
        profile.Profile.skipped_lines;
    List.iter
      (fun (what, out, stacks) ->
        Option.iter
          (fun file ->
            write_output what file (Profile.folded_to_string (stacks profile)))
          out)
      [
        ("folded stacks", folded_out, Profile.folded);
        ("folded alloc stacks", folded_alloc_out, Profile.folded_alloc);
      ];
    if folded_out = None && folded_alloc_out = None then
      Format.printf "%a@?" (Profile.pp ~top) profile
  in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Profile a recorded trace: time and allocation hotspots, \
            critical paths, the per-domain parallelism timeline, counter \
            attribution, provenance table; --folded/--folded-alloc write \
            flamegraph input instead")
      Term.(
        const run $ file_arg $ request_opt $ folded_out $ folded_alloc_out
        $ top)
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
  let jobs_opt =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan the per-problem decisions out over $(docv) OCaml domains \
             (default 1 = sequential; below 1 is a usage error).  The report \
             is byte-identical for every $(docv) (DESIGN.md §9); only the wall \
             time, the schedule recorded in a --trace file, and the par.* \
             counters change.")
  in
  let run gspec jobs budget obs =
    with_obs ~cmd:"sweep" obs @@ fun () ->
    if jobs < 1 then invalid_arg (Printf.sprintf "--jobs must be at least 1, got %d" jobs);
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
    Term.(const run $ graph_arg 0 $ jobs_opt $ budget $ obs_term)

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
                   library sources appears in the DESIGN.md §6 name table, \
                   and that every name in the table is registered (SL041). \
                   Implied when no $(i,PROBLEM) is given.")
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
             ~doc:"Source directory to scan (repeatable, with --telemetry).")
  in
  let run specs delta r machine codes re_steps telemetry design src_dirs =
    if codes then Format.printf "%a@?" Chk.pp_code_table ()
    else
      with_telemetry ~cmd:"lint" None false None
      @@ fun () ->
      (* Plain [slocal lint] with no arguments: the repository
         self-check (telemetry name table). *)
      let telemetry = telemetry || specs = [] in
      let telemetry_diags =
        if telemetry then Source.lint_telemetry_files ~design ~src_dirs
        else []
      in
      let diags =
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
      report_and_exit ~machine (telemetry_diags @ diags)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify formalism invariants (diagrams, lifts, \
             condensed syntax, telemetry name inventory)")
    Term.(const run $ specs $ delta_opt $ r_opt $ machine_flag $ codes_flag
          $ re_steps $ telemetry_flag $ design_opt $ src_opt)

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
  let run spec gspec k budget recheck_budget machine obs =
    with_obs ~cmd:"audit" obs @@ fun () ->
    let p = parse_problem spec in
    let r = Ops.audit ~max_nodes:budget ~recheck_budget ~k (parse_graph gspec) p in
    Format.printf "%a@." Core.Framework.pp_result r.Ops.analysis;
    report_and_exit ~machine r.Ops.diagnostics
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run the Theorem 3.4 pipeline and re-validate the resulting \
             certificate")
    Term.(const run $ problem_arg $ graph_arg 1 $ k $ budget $ recheck_budget
          $ machine_flag $ obs_term)

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
(* Ledger maintenance: the read side of the slocal.request/1 records
   that every kernel-facing invocation, bench run and recorded daemon
   request appends. *)

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
      (path, { Ledger.records = []; skipped = 0 })
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
        r.Ledger.skipped
  in
  let iso t =
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  (* A daemon request record has no argv, no start time and a
     sub-second wall: it shows its body (or op) and its wall in ms. *)
  let is_request (r : Ledger.record) = r.Ledger.argv = [] in
  let argv_line (r : Ledger.record) =
    if not (is_request r) then String.concat " " r.Ledger.argv
    else
      match r.Ledger.body with
      | Some b -> Json.to_string b
      | None -> r.Ledger.op
  in
  let wall (r : Ledger.record) =
    if is_request r then Printf.sprintf "%.2fms" (float_of_int r.Ledger.wall_ns /. 1e6)
    else Printf.sprintf "%.2fs" (Ledger.wall_seconds r)
  in
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
              Format.printf "%-4d %-13s %-20s %9s %8s %-5d %s@." (i + 1)
                r.Ledger.id
                (if is_request r then "-" else iso r.Ledger.started_at)
                (wall r) r.Ledger.outcome r.Ledger.exit_code
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
      if is_request r then begin
        Format.printf "  request:  %s@." (argv_line r);
        Format.printf "  wall:     %s@." (wall r)
      end
      else begin
        Format.printf "  argv:     %s@." (argv_line r);
        Format.printf "  started:  %s@." (iso r.Ledger.started_at);
        Format.printf "  finished: %s (wall %s)@."
          (iso (r.Ledger.started_at +. Ledger.wall_seconds r))
          (wall r)
      end;
      Format.printf "  outcome:  %s (exit %d)@." r.Ledger.outcome
        r.Ledger.exit_code;
      Option.iter (Format.printf "  seed:     %d@.") r.Ledger.seed;
      if is_request r then
        Format.printf "  cost:     %dB allocated, RE cache %d hit(s) / %d miss(es)@."
          r.Ledger.alloc_b r.Ledger.cache_hits r.Ledger.cache_misses
      else if r.Ledger.alloc_b > 0 || r.Ledger.majors > 0 then
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
      Format.printf "wall: %s -> %s@." (wall a) (wall b);
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
        & info [ "keep" ] ~docv:"N"
            ~doc:"Newest records to keep (below 0 is a usage error).")
    in
    let run ledger keep =
      if keep < 0 then begin
        Printf.eprintf "runs gc: --keep must be at least 0, got %d\n" keep;
        exit 2
      end;
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
         ~doc:"Compact the ledger: keep the newest N records overall, \
               whatever wrote them, drop damaged lines (atomic rewrite)")
      Term.(const run $ ledger_opt $ keep)
  in
  Cmd.group
    (Cmd.info "runs"
       ~doc:"Inspect the slocal.request/1 ledger: one record per \
             kernel-facing run, bench run and recorded daemon request")
    [ list_cmd; show_cmd; diff_cmd; gc_cmd ]

(* ------------------------------------------------------------------ *)
(* The serve daemon and its client: one warm process (RE cache,
   telemetry registry) answering JSONL requests over a
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
  let run socket record heartbeat trace metrics openmetrics =
    with_telemetry ~cmd:"serve" trace metrics openmetrics @@ fun () ->
    let config =
      {
        Serve.record;
        heartbeat = (if heartbeat then Some stderr else None);
        heartbeat_interval_ns =
          Serve.default_config.Serve.heartbeat_interval_ns;
      }
    in
    let st = Serve.create ~config () in
    Format.eprintf "serve: listening on %s@." socket;
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
      const run $ socket_opt $ record_opt $ heartbeat_flag
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
            "Re-send the request bodies of a slocal.request/1 ledger recorded \
             with $(b,slocal serve --record) (records without a body, such \
             as CLI runs, are skipped) and print each request's \
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
            ( (recorded : Ledger.record option),
              Option.bind (Json.member "request" resp) (fun j ->
                  Result.to_option (Ledger.of_json j)) )
          with
          | Some prev, Some now ->
              Format.eprintf
                "replay %-8s %-8s wall %a -> %a  alloc %dB -> %dB  cache \
                 %d/%d -> %d/%d@."
                now.Ledger.id now.Ledger.op Telemetry.pp_duration
                (Int64.of_int prev.Ledger.wall_ns)
                Telemetry.pp_duration
                (Int64.of_int now.Ledger.wall_ns)
                prev.Ledger.alloc_b now.Ledger.alloc_b
                prev.Ledger.cache_hits prev.Ledger.cache_misses
                now.Ledger.cache_hits now.Ledger.cache_misses
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
        let { Ledger.records; skipped } = Ledger.read_file path in
        let replayable =
          List.filter (fun (r : Ledger.record) -> r.Ledger.body <> None) records
        in
        let skipped = skipped + List.length records - List.length replayable in
        if skipped > 0 then
          Printf.eprintf
            "client: %s: skipped %d damaged or body-less line(s)\n" path
            skipped;
        List.iter
          (fun r -> Option.iter (send_request ~recorded:r) r.Ledger.body)
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
            sweep_cmd;
            runs_cmd;
            trace_cmd;
            export_cmd;
            lint_cmd;
            audit_cmd;
            serve_cmd;
            client_cmd;
          ]))
