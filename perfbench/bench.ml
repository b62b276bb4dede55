(* perfbench: the repository's end-to-end benchmark (README.md here).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--slocal PATH]         (the slocal binary, for serve-mix)
     bench.exe --self-test             (a wrong golden must be reported)
     bench.exe --print-goldens         (re-record goldens.ml)

   With --trace 0 it sets the workload up several times, repeats whole
   passes of its ops for about S seconds with telemetry off, checks
   every output, and prints the end-to-end metrics.  With --trace 1 it
   alternates untraced passes with the same passes under the in-memory
   collector sink, and prints the per-layer metrics.  The last
   line of stdout is always one JSON result object; the exit code is 0
   only when every output checked out. *)

module Telemetry = Slocal_obs.Telemetry
module Json = Slocal_obs.Json
module Profile = Slocal_analysis.Profile
module W = Workloads

let now = Telemetry.now_ns
let ns_since t0 = Int64.to_int (Int64.sub (now ()) t0)
let seconds_of_ns ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Passes *)

type sample = { kind : string; ns : int; error : string option }

let run_op pass (op : W.op) =
  let ns = ref 0 in
  let timed f =
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> ns := ns_since t0)
      (fun () -> Telemetry.span "perfbench.op" f)
  in
  let error =
    try op.W.run { W.timed; pass } with e -> Some (op.W.kind ^ ": " ^ Printexc.to_string e)
  in
  { kind = op.W.kind; ns = !ns; error }

(* One pass: every group once, in an order drawn from (seed, pass). *)
let run_pass ~seed pass (w : W.t) =
  let order = Array.copy w.W.groups in
  Slocal_util.Prng.shuffle (Slocal_util.Prng.create (Hashtbl.hash (seed, pass))) order;
  List.concat_map (fun g -> List.map (run_op pass) (Array.to_list g)) (Array.to_list order)

let pass_time samples = List.fold_left (fun a s -> a + s.ns) 0 samples

(* [run 0], [run 1], … until about [seconds] have elapsed, but at least
   [min_passes] passes and [min_ops] ops (so that op_p90 has ten ops
   beyond it).  [ops] counts the ops a pass result holds. *)
let min_passes = 3
let min_ops = 100

let repeat_passes ~seconds ~ops run =
  let t_start = now () in
  let rec loop acc done_ n_ops =
    let elapsed = seconds_of_ns (ns_since t_start) in
    if done_ >= min_passes && n_ops >= min_ops
       && elapsed +. (elapsed /. float_of_int done_) > seconds
    then List.rev acc
    else
      let r = run done_ in
      loop (r :: acc) (done_ + 1) (n_ops + ops r)
  in
  loop [] 0 0

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted_ns samples = Array.of_list (List.sort compare (List.map (fun s -> s.ns) samples))

(* Nearest-rank percentile and the number of ops strictly beyond its
   rank. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  (sorted.(rank - 1), n - rank)

(* Mean of the middle half: robust to a burst of machine slowness, yet
   it averages over the passes' different pool members. *)
let interquartile_mean l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  let k = n / 4 in
  let mid = Array.sub a k (n - (2 * k)) in
  Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

let median_float l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Set-up *)

let setup ~slocal ~seed ~trace name =
  match name with
  | "re-seq" -> W.re_seq ~seed ~goldens:Goldens.re_seq
  | "certify" -> W.certify ~seed
  | "lift-decide" -> W.lift_decide ~seed
  | "serve-mix" -> W.serve_mix ~slocal ~trace
  | _ -> invalid_arg ("unknown workload " ^ name)

let timed_setup make =
  let t0 = now () in
  let w = make () in
  (w, seconds_of_ns (ns_since t0))

(* Extra set-ups, each finished at once, until [setup_budget_s] of
   set-up time (at least 3, at most 201).  They run after the timed
   phase, when the processor is no longer ramping up from idle. *)
let setup_budget_s = 0.5

let more_setups make =
  let rec go acc total =
    if List.length acc >= 201 || (List.length acc >= 3 && total >= setup_budget_s) then acc
    else begin
      let w, s = timed_setup make in
      ignore (w.W.finish ());
      go (s :: acc) (total +. s)
    end
  in
  go [] 0.

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { name : string; value : float; unit_ : string }

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
                metrics) );
       ])

let report_errors samples extra =
  let errors = List.filter_map (fun s -> s.error) samples @ Option.to_list extra in
  List.iteri
    (fun i e -> if i < 10 then Printf.printf "  FAILED: %s\n" e)
    errors;
  if List.length errors > 10 then
    Printf.printf "  ... and %d more failures\n" (List.length errors - 10)

let failed_count samples = List.length (List.filter (fun s -> s.error <> None) samples)

let print_kinds samples =
  let kinds = List.sort_uniq compare (List.map (fun s -> s.kind) samples) in
  Printf.printf "  %-16s %7s %11s %11s %11s\n" "op kind" "ops" "p50 ms" "max ms" "total s";
  List.iter
    (fun k ->
      let s = List.filter (fun s -> s.kind = k) samples in
      let a = sorted_ns s in
      let p50, _ = percentile a 0.5 in
      Printf.printf "  %-16s %7d %11.3f %11.3f %11.3f\n" k (Array.length a)
        (float_of_int p50 /. 1e6)
        (float_of_int a.(Array.length a - 1) /. 1e6)
        (seconds_of_ns (pass_time s)))
    kinds

let end_to_end ~name ~setup_s passes (fin : W.finished) =
  let samples = List.concat passes in
  let sorted = sorted_ns samples in
  let n = Array.length sorted in
  let failed = failed_count samples in
  let pct q =
    let v, beyond = percentile sorted q in
    (float_of_int v /. 1e6, beyond)
  in
  let p50, b50 = pct 0.5 and p90, b90 = pct 0.9 and p99, b99 = pct 0.99 in
  let pass_ns = List.map pass_time passes in
  let wall_s = interquartile_mean (List.map float_of_int pass_ns) /. 1e9 in
  let peak_rss_mb = float_of_int fin.W.rss_kb /. 1024. in
  Printf.printf "perfbench %s: %d ops in %d passes, %d failed\n" name n
    (List.length passes) failed;
  Printf.printf "  %-12s %12.6f s   median set-up\n" "setup_s" setup_s;
  Printf.printf "  %-12s %12.6f s   interquartile mean pass (checks excluded); passes: %s\n" "wall_s"
    wall_s
    (String.concat " " (List.map (fun ns -> Printf.sprintf "%.3f" (seconds_of_ns ns)) pass_ns));
  let show label v beyond =
    if beyond >= 10 then
      Printf.printf "  %-12s %12.6f ms  %d ops, %d beyond\n" label v n beyond
    else Printf.printf "  %-12s %12s     %d ops: fewer than 10 beyond\n" label "n/a" n
  in
  show "op_p50_ms" p50 b50;
  show "op_p90_ms" p90 b90;
  show "op_p99_ms" p99 b99;
  Printf.printf "  %-12s %12.6f     %d of %d ops\n" "failed_frac"
    (float_of_int failed /. float_of_int (max 1 n))
    failed n;
  Printf.printf "  %-12s %12.3f MB  VmHWM of the %s\n" "peak_rss_mb" peak_rss_mb
    (if name = "serve-mix" then "daemon" else "benchmark process");
  print_kinds samples;
  [
    { name = "setup_s"; value = setup_s; unit_ = "s" };
    { name = "wall_s"; value = wall_s; unit_ = "s" };
    { name = "op_p50_ms"; value = p50; unit_ = "ms" };
    { name = "op_p90_ms"; value = p90; unit_ = "ms" };
    { name = "peak_rss_mb"; value = peak_rss_mb; unit_ = "MB" };
  ]

(* Program spans (inside lib/) and benchmark spans map to the layer of
   their first name component. *)
let layer_of name =
  match String.split_on_char '.' name with
  | "perfbench" :: "op" :: _ -> "unattributed"
  | "perfbench" :: l :: _ -> l
  | ("graph" | "girth") :: _ -> "graph"
  | ("re" | "sequence" | "constr") :: _ -> "formalism"
  | ("solver" | "zrs" | "checker") :: _ -> "model"
  | ("lift" | "zero_round" | "round_step") :: _ -> "core"
  | ("request" | "serve") :: _ -> "serve"
  | _ -> "obs"

let print_layer_table title totals =
  let layers = List.sort_uniq compare (List.map (fun t -> layer_of t.Profile.agg_name) totals) in
  Printf.printf "  %s\n  %-13s %11s %11s %11s\n" title "layer" "self s" "cum s" "alloc MB";
  List.iter
    (fun l ->
      let mine = List.filter (fun t -> layer_of t.Profile.agg_name = l) totals in
      let sum f = List.fold_left (fun a t -> a + f t) 0 mine in
      let outer =
        List.filter
          (fun t ->
            String.starts_with ~prefix:("perfbench." ^ l ^ ".") t.Profile.agg_name)
          mine
      in
      let cum = List.fold_left (fun a t -> a + t.Profile.cum_ns) 0 outer in
      Printf.printf "  %-13s %11.4f %11s %11.2f\n" l
        (seconds_of_ns (sum (fun t -> t.Profile.self_total_ns)))
        (if outer = [] then "-" else Printf.sprintf "%.4f" (seconds_of_ns cum))
        (float_of_int (sum (fun t -> t.Profile.self_alloc_total_b)) /. 1e6))
    layers;
  Printf.printf "  %-34s %7s %11s %11s %11s\n" "span" "calls" "self s" "cum s" "alloc MB";
  List.iter
    (fun t ->
      Printf.printf "  %-34s %7d %11.4f %11.4f %11.2f\n" t.Profile.agg_name
        t.Profile.calls
        (seconds_of_ns t.Profile.self_total_ns)
        (seconds_of_ns t.Profile.cum_ns)
        (float_of_int t.Profile.alloc_total_b /. 1e6))
    (List.filteri (fun i _ -> i < 14) totals)

let per_layer ~totals ~delta ~extras ~overhead ~unattributed =
  let named n = List.filter (fun t -> t.Profile.agg_name = n) totals in
  let sum n f = List.fold_left (fun a t -> a + f t) 0 (named n) in
  let time n = seconds_of_ns (sum n (fun t -> t.Profile.cum_ns)) in
  let alloc n = float_of_int (sum n (fun t -> t.Profile.alloc_total_b)) /. 1e6 in
  let count n = Option.value ~default:0 (List.assoc_opt n delta) in
  let frac hits misses =
    let h = count hits and m = count misses in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  let extra n = Option.value ~default:0. (List.assoc_opt n extras) in
  let c n = float_of_int (count n) in
  let gen = "graph.high_girth_low_independence" in
  List.map
    (fun (name, value, unit_) -> { name; value; unit_ })
    [
      ("graph.gen.time_s", time gen, "s");
      ("graph.gen.alloc_mb", alloc gen, "MB");
      ("graph.gen.swaps", c "graph.girth_swaps", "count");
      ("graph.gen.futile_swap_frac", extra "graph.gen.futile_swap_frac", "frac");
      ("graph.girth.bfs_runs", c "girth.bfs_runs", "count");
      ("graph.girth.time_s", time "perfbench.graph.girth", "s");
      ("formalism.re.time_s", time "re.step", "s");
      ("formalism.re.alloc_mb", alloc "re.step", "MB");
      ("formalism.re.steps", c "re.steps", "count");
      ("formalism.re.enum_nodes", c "re.enum_nodes", "count");
      ("formalism.constr.memo_hit_frac", frac "constr.memo_hits" "constr.memo_misses", "frac");
      ("formalism.re.cache_hit_frac", frac "re.cache_hits" "re.cache_misses", "frac");
      ("formalism.relaxation.time_s", time "sequence.check", "s");
      ("model.solver.time_s", time "solver.solve", "s");
      ("model.solver.nodes", c "solver.nodes", "count");
      ("model.solver.budget_exhausted", c "solver.budget_exhausted", "count");
      ("model.zrs.time_s", time "zrs.find_algorithm", "s");
      ("model.zrs.instance_checks", c "zrs.instance_checks", "count");
      ("model.zrs.table_hit_frac", frac "zrs.table_hits" "zrs.table_misses", "frac");
      ("core.lift.time_s", time "lift.lift", "s");
      ("core.lift.calls", float_of_int (sum "lift.lift" (fun t -> t.Profile.calls)), "count");
      ("core.counting.time_s", time "perfbench.core.counting", "s");
      ("core.framework.time_s", time "perfbench.core.analyze", "s");
      ("serve.window_ms_p50", extra "serve.window_ms_p50", "ms");
      ("serve.overhead_ms_p50", extra "serve.overhead_ms_p50", "ms");
      ("obs.trace_overhead_frac", overhead, "frac");
      ("obs.unattributed_frac", unattributed, "frac");
    ]

(* ------------------------------------------------------------------ *)
(* Modes *)

let run_untraced ~slocal ~seed ~seconds name =
  let make () = setup ~slocal ~seed ~trace:false name in
  let w, first = timed_setup make in
  let passes = repeat_passes ~seconds ~ops:List.length (fun i -> run_pass ~seed i w) in
  let fin = w.W.finish () in
  let setup_s = median_float (first :: more_setups make) in
  let metrics = end_to_end ~name ~setup_s passes fin in
  let samples = List.concat passes in
  report_errors samples fin.W.error;
  let failed = failed_count samples in
  (metrics, List.length samples, failed, failed = 0 && fin.W.error = None)

let add_counts acc delta =
  List.fold_left
    (fun acc (k, v) -> (k, v + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
    acc delta

(* Untraced and traced passes alternate, each pair on the same inputs
   and order, so that a drift in machine speed hits both sides alike. *)
let run_traced ~slocal ~seed ~seconds name =
  let w0 = setup ~slocal ~seed ~trace:false name in
  (* The daemon must be traced from its start, so serve-mix sends the
     traced passes to a second daemon started with --trace. *)
  let w1 = if name = "serve-mix" then setup ~slocal ~seed ~trace:true name else w0 in
  let events = ref [] and delta = ref [] in
  let traced_pass i =
    let before = w1.W.counts () in
    Telemetry.set_sink (Telemetry.collector_sink (fun e -> events := e :: !events));
    let samples =
      Fun.protect
        ~finally:(fun () -> Telemetry.set_sink Telemetry.null_sink)
        (fun () -> run_pass ~seed i w1)
    in
    delta := add_counts !delta (Telemetry.delta ~before ~after:(w1.W.counts ()));
    samples
  in
  let pairs =
    repeat_passes ~seconds
      ~ops:(fun (u, _) -> List.length u)
      (fun i ->
        let u = run_pass ~seed i w0 in
        (u, traced_pass i))
  in
  let untraced = List.concat_map fst pairs and traced = List.concat_map snd pairs in
  let extras = w0.W.extras () in
  let fin0 = w0.W.finish () in
  let fin1 = if w1 == w0 then fin0 else w1.W.finish () in
  let prof = Profile.of_events (List.rev !events) in
  let totals = Profile.totals prof in
  let daemon_totals =
    match fin1.W.daemon with Some p -> Profile.totals p | None -> []
  in
  let ops = List.filter (fun s -> s.Profile.name = "perfbench.op") prof.Profile.roots in
  let op_ns = List.fold_left (fun a s -> a + Profile.dur_ns s) 0 ops in
  let glue_ns = List.fold_left (fun a s -> a + Profile.self_ns s) 0 ops in
  let unattributed = if op_ns = 0 then 0. else float_of_int glue_ns /. float_of_int op_ns in
  let w0_ns = pass_time untraced and w1_ns = pass_time traced in
  let overhead = (float_of_int w1_ns /. float_of_int (max 1 w0_ns)) -. 1. in
  Printf.printf "perfbench %s (traced): %d passes of %d ops, %.3f s untraced, %.3f s traced\n"
    name (List.length pairs) (List.length untraced) (seconds_of_ns w0_ns) (seconds_of_ns w1_ns);
  Printf.printf "  obs.trace_overhead_frac %+.4f   obs.unattributed_frac %.4f\n" overhead
    unattributed;
  print_layer_table "benchmark process:" totals;
  if daemon_totals <> [] then print_layer_table "serve daemon (inside serve.roundtrip):" daemon_totals;
  let metrics =
    per_layer ~totals:(totals @ daemon_totals) ~delta:!delta ~extras ~overhead ~unattributed
  in
  List.iter
    (fun m -> Printf.printf "  %-32s %14.6f %s\n" m.name m.value m.unit_)
    metrics;
  let samples = untraced @ traced in
  let fin_error = if fin0.W.error <> None then fin0.W.error else fin1.W.error in
  report_errors samples fin_error;
  let failed = failed_count samples in
  (metrics, List.length samples, failed, failed = 0 && fin_error = None)

(* One wrong golden must surface as exactly one failed op that names it. *)
let self_test () =
  let spec = "mm:3" in
  let goldens =
    List.map
      (fun (s, hs) -> if s = spec then (s, List.mapi (fun i h -> if i = 1 then h + 1 else h) hs) else (s, hs))
      Goldens.re_seq
  in
  let errors = List.filter_map (fun s -> s.error) (run_pass ~seed:1 0 (W.re_seq ~seed:1 ~goldens)) in
  match errors with
  | [ e ] when String.starts_with ~prefix:(spec ^ ":") e ->
      Printf.printf "self-test passed: the wrong golden was reported (%s)\n" e;
      exit 0
  | _ ->
      Printf.printf "self-test FAILED: expected one failure naming %s, got %d:\n" spec
        (List.length errors);
      List.iter (Printf.printf "  %s\n") errors;
      exit 1

let print_goldens () =
  let module Serve = Slocal_serve.Serve in
  Printf.printf "let re_seq : (string * int list) list =\n  [\n";
  List.iter
    (fun (spec, k) ->
      let seq = Slocal_formalism.Sequence.iterate_re (Serve.parse_problem_spec spec) ~steps:k in
      if Slocal_formalism.Sequence.is_lower_bound_sequence seq <> Some true then
        failwith (spec ^ " does not verify");
      Printf.printf "    (%S, [ %s ]);\n" spec
        (String.concat "; " (List.map (fun p -> string_of_int (W.hash p)) seq)))
    W.re_seq_specs;
  Printf.printf "  ]\n\nlet two_label_verdicts : (int * string) list =\n  [\n";
  List.iter
    (fun k ->
      let verdicts =
        W.Zero_round.decide_batch (W.bipartite_cycle k) (W.Zero_round.two_label_problems ())
      in
      Printf.printf "    (%d, %S);\n" k
        (String.concat ""
           (List.map
              (function
                | Some a, Some b when a = b -> if a then "1" else "0"
                | _ -> failwith "two-label routes disagree")
              verdicts)))
    W.two_label_cycles;
  Printf.printf "  ]\n\nlet serve_solve : ((string * string) * string) list =\n  [\n";
  List.iter
    (fun (p, g) ->
      Printf.printf "    ((%S, %S), %S);\n" p g
        (match W.Solver.solve (Serve.parse_graph_spec g) (Serve.parse_problem_spec p) with
        | W.Solver.Solution _ -> "solution"
        | W.Solver.No_solution -> "no_solution"
        | W.Solver.Budget_exceeded -> "budget_exceeded"))
    W.serve_solves;
  Printf.printf "  ]\n\nlet serve_audit : ((string * string) * string) list =\n  [\n";
  List.iter
    (fun (p, g) ->
      let r =
        W.Framework.analyze (Serve.parse_graph_spec g) ~last_problem:(Serve.parse_problem_spec p)
          ~k:1
      in
      Printf.printf "    ((%S, %S), %S);\n" p g
        (match r.W.Framework.certificate with
        | W.Framework.Unsolvable_by_search -> "unsolvable-by-search"
        | W.Framework.Solvable _ -> "solvable"
        | W.Framework.Undecided -> "undecided"))
    W.serve_audits;
  Printf.printf "  ]\n"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let slocal = ref "" and mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--slocal", Arg.Set_string slocal, "PATH slocal binary (serve-mix)");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " check that a wrong golden fails");
      ("--print-goldens", Arg.Unit (fun () -> mode := `Goldens), " print goldens.ml");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--slocal PATH]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !mode with
  | `Self_test -> self_test ()
  | `Goldens -> print_goldens ()
  | `Run ->
      if not (List.mem !workload W.names) || (!trace <> 0 && !trace <> 1) || !seconds <= 0.
      then begin
        Arg.usage spec usage;
        exit 2
      end;
      if !workload = "serve-mix" && not (Sys.file_exists !slocal) then begin
        prerr_endline "perfbench: serve-mix needs --slocal PATH to an existing binary";
        exit 2
      end;
      let run = if !trace = 1 then run_traced else run_untraced in
      let metrics, attempted, failed, correct =
        run ~slocal:!slocal ~seed:!seed ~seconds:!seconds !workload
      in
      print_endline (result_line ~correct ~attempted ~failed metrics);
      exit (if correct then 0 else 1)
