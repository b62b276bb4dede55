(* The slocal.bench/1 format: the typed report, its writer, its one
   strict reader, and the regression gates with their two renderers.

   The bench harness builds a [report] and writes it with [to_json];
   every reader ([validate], [report], [history]) goes through
   [read_file], so a document one of them accepts, all of them accept.
   Both gates are one median-of-window trend per experiment: [history]
   gates the newest value against up to [history_window] previous
   ones, and [report BASE CUR] is the window-of-one case. *)

module Json = Slocal_obs.Json

let schema_version = "slocal.bench/1"

type experiment = {
  id : string;
  title : string;
  wall_ns : int;
  alloc_b : int option;
  minor_n : int option;
  major_n : int option;
  counters : (string * int) list;
}

type report = {
  mode : string;
  quick : bool;
  experiments : experiment list;
  benchmarks : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Writer *)

let to_json r : Json.t =
  let ints kvs = List.map (fun (k, v) -> (k, Json.Int v)) kvs in
  let experiment e =
    let opt k = Option.map (fun v -> (k, v)) in
    Json.Obj
      ([
         ("id", Json.String e.id);
         ("title", Json.String e.title);
         ("wall_ns", Json.Int e.wall_ns);
       ]
      @ ints
          (List.filter_map Fun.id
             [
               opt "alloc_b" e.alloc_b;
               opt "minor_n" e.minor_n;
               opt "major_n" e.major_n;
             ])
      @ [ ("counters", Json.Obj (ints e.counters)) ])
  in
  let benchmark (name, ns) =
    Json.Obj [ ("name", Json.String name); ("ns_per_run", Json.Float ns) ]
  in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("mode", Json.String r.mode);
      ("quick", Json.Bool r.quick);
      ("experiments", Json.List (List.map experiment r.experiments));
      ("benchmarks", Json.List (List.map benchmark r.benchmarks));
    ]

(* ------------------------------------------------------------------ *)
(* Reader: the first violation, in document order, is the diagnostic. *)

let ( let* ) = Result.bind

let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error m -> Error m)
  in
  go [] xs

let field k obj =
  match Json.member k obj with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let typed as_ what name v =
  match as_ v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S is not %s" name what)

let int_value = typed Json.as_int "an integer"

let string_field k obj =
  let* v = field k obj in
  typed Json.as_string "a string" k v

let list_field k obj =
  let* v = field k obj in
  Option.to_result ~none:(Printf.sprintf "%S is not a list" k) (Json.as_list v)

let experiment_of_json e =
  let* id = string_field "id" e in
  let* title = string_field "title" e in
  let* wall_ns = field "wall_ns" e in
  let* wall_ns = int_value "wall_ns" wall_ns in
  (* Additive alloc fields: absent on older reports, integers when
     present. *)
  let optional k =
    match Json.member k e with
    | None -> Ok None
    | Some v -> Result.map Option.some (int_value (id ^ "." ^ k) v)
  in
  let* alloc_b = optional "alloc_b" in
  let* minor_n = optional "minor_n" in
  let* major_n = optional "major_n" in
  let* counters = field "counters" e in
  let* counters =
    Option.to_result
      ~none:(Printf.sprintf "%s: \"counters\" is not an object" id)
      (Json.as_obj counters)
  in
  let* counters =
    map_result
      (fun (k, v) ->
        Result.map (fun n -> (k, n)) (int_value (id ^ ".counters." ^ k) v))
      counters
  in
  Ok { id; title; wall_ns; alloc_b; minor_n; major_n; counters }

let benchmark_of_json b =
  let* name = string_field "name" b in
  let* ns = field "ns_per_run" b in
  match Json.as_float ns with
  | Some ns -> Ok (name, ns)
  | None -> Error (Printf.sprintf "%s: \"ns_per_run\" is not a number" name)

let of_json json =
  let* schema = string_field "schema" json in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "unknown schema %S" schema)
  in
  let* mode = string_field "mode" json in
  let* experiments = list_field "experiments" json in
  let* experiments = map_result experiment_of_json experiments in
  let* benchmarks = list_field "benchmarks" json in
  let* benchmarks = map_result benchmark_of_json benchmarks in
  let quick =
    Option.value ~default:false
      (Option.bind (Json.member "quick" json) Json.as_bool)
  in
  Ok { mode; quick; experiments; benchmarks }

let read_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Json.of_string text with
      | Error msg -> Error ("invalid JSON: " ^ msg)
      | Ok json -> of_json json)

(* ------------------------------------------------------------------ *)
(* Gates *)

(* The enum-nodes CI gate: current may not exceed baseline by more
   than 10% (the counter is deterministic per experiment but the
   experiment set varies between quick and full runs). *)
let gate_ratio = 1.10

(* The allocation gate is far tighter: bytes allocated by the
   sequential kernels are deterministic for a fixed seed (the
   allocation-determinism proptest pins this down), so 2% headroom is
   pure safety margin for runtime-version drift. *)
let alloc_gate_ratio = 1.02

(* Experiments whose harness fans work out over domains: the
   coordinating domain's allocation depends on work-stealing order, so
   they are exempt from the alloc gate (reported, never gated). *)
let alloc_exempt_ids = [ "E-SCALE" ]
let history_window = 5
let ratio_of cur base = float_of_int cur /. float_of_int (max 1 base)
let breaches ~ratio ~base ~cur = float_of_int cur > float_of_int base *. ratio
let enum_nodes e = List.assoc_opt "re.enum_nodes" e.counters

type trend =
  | No_data
  | One_point
  | Gated of { latest : int; median : int; breach : bool }

type row = {
  id : string;
  entries : experiment option list;
  nodes : trend;
  alloc : trend;
  exempt : bool;
}

let trend ~ratio ~exempt values =
  match List.rev values with
  | [] -> No_data
  | [ _ ] -> One_point
  | latest :: previous ->
      let window =
        List.sort compare
          (List.filteri (fun i _ -> i < history_window) previous)
      in
      let median = List.nth window ((List.length window - 1) / 2) in
      Gated
        {
          latest;
          median;
          breach = (not exempt) && breaches ~ratio ~base:median ~cur:latest;
        }

let evaluate reports =
  let ids =
    List.fold_left
      (fun acc (r : report) ->
        List.fold_left
          (fun acc (e : experiment) ->
            if List.mem e.id acc then acc else e.id :: acc)
          acc r.experiments)
      [] reports
    |> List.rev
  in
  List.map
    (fun id ->
      let entries =
        List.map
          (fun r ->
            List.find_opt (fun (e : experiment) -> e.id = id) r.experiments)
          reports
      in
      (* Absent experiments and reports predating the alloc fields
         drop out of the series. *)
      let series f = List.filter_map (fun e -> Option.bind e f) entries in
      let exempt = List.mem id alloc_exempt_ids in
      {
        id;
        entries;
        nodes = trend ~ratio:gate_ratio ~exempt:false (series enum_nodes);
        alloc =
          trend ~ratio:alloc_gate_ratio ~exempt (series (fun e -> e.alloc_b));
        exempt;
      })
    ids

let is_gated = function Gated _ -> true | No_data | One_point -> false

let breached = function
  | Gated { breach; _ } -> breach
  | No_data | One_point -> false

(* ------------------------------------------------------------------ *)
(* Renderers; each returns the exit code (0 pass, 1 regressed or
   unreadable). *)

let pretty_ns ns =
  let ns = float_of_int ns in
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let cell f = function Some v -> f v | None -> "–"
let count p xs = List.length (List.filter p xs)

let unreadable cmd file msg =
  Printf.eprintf "%s: %s: %s\n" cmd file msg;
  1

let validate file =
  match read_file file with
  | Error msg -> unreadable "validate" file msg
  | Ok r ->
      Printf.printf "%s: valid %s (%d experiments, %d benchmarks)\n" file
        schema_version
        (List.length r.experiments)
        (List.length r.benchmarks);
      0

(* [report BASE CUR]: a markdown regression report suitable for pasting
   into a PR description — per-experiment wall clock and the gated
   metrics over the experiments both reports share, notable changes in
   the other kernel counters, and the shared microbenchmark timings. *)
let render_report ~baseline_file ~current_file baseline current =
  let p = Printf.printf in
  let rows = evaluate [ baseline; current ] in
  let shared =
    List.filter_map
      (fun r ->
        match r.entries with
        | [ Some b; Some c ] -> Some (r, b, c)
        | _ -> None)
      rows
  in
  p "# Bench regression report\n\n";
  p "baseline: `%s` — current: `%s`\n\n" baseline_file current_file;
  p "Gates: per-experiment `re.enum_nodes` may not exceed the baseline by \
     more than %.0f%%; per-experiment `alloc_b` by more than %.0f%% \
     (deterministic sequential allocation; parallel experiments exempt).\n\n"
    ((gate_ratio -. 1.) *. 100.)
    ((alloc_gate_ratio -. 1.) *. 100.);
  p "## Experiments\n\n";
  p "| id | wall (base) | wall (cur) | wall Δ | enum_nodes (base) | \
     enum_nodes (cur) | Δ | gate |\n";
  p "|---|---:|---:|---:|---:|---:|---:|---|\n";
  List.iter
    (fun (r, b, c) ->
      let ratio, gate =
        match r.nodes with
        | Gated { latest; median; breach } ->
            ( Printf.sprintf "%.2fx" (ratio_of latest median),
              if breach then "**REGRESSED**" else "ok" )
        | No_data | One_point -> ("–", "–")
      in
      p "| %s | %s | %s | %.2fx | %s | %s | %s | %s |\n" r.id
        (pretty_ns b.wall_ns) (pretty_ns c.wall_ns)
        (ratio_of c.wall_ns b.wall_ns)
        (cell string_of_int (enum_nodes b))
        (cell string_of_int (enum_nodes c))
        ratio gate)
    shared;
  let only_in side pick =
    match
      List.filter_map (fun r -> if pick r.entries then Some r.id else None) rows
    with
    | [] -> ()
    | ids -> p "\nOnly in %s: %s\n" side (String.concat ", " ids)
  in
  only_in "baseline" (function [ Some _; None ] -> true | _ -> false);
  only_in "current" (function [ None; Some _ ] -> true | _ -> false);
  let notable =
    List.concat_map
      (fun (_, (b : experiment), c) ->
        List.filter_map
          (fun (k, vb) ->
            match List.assoc_opt k c.counters with
            | Some vc
              when k <> "re.enum_nodes" && vb <> vc
                   && (breaches ~ratio:gate_ratio ~base:vb ~cur:vc
                      || breaches ~ratio:gate_ratio ~base:vc ~cur:vb) ->
                Some (b.id, k, vb, vc)
            | _ -> None)
          b.counters)
      shared
  in
  p "\n## Notable counter changes\n\n";
  if notable = [] then
    p "No other per-experiment counter moved by more than %.0f%%.\n"
      ((gate_ratio -. 1.) *. 100.)
  else begin
    p "| id | counter | base | cur | Δ |\n";
    p "|---|---|---:|---:|---:|\n";
    List.iter
      (fun (id, k, b, c) ->
        p "| %s | `%s` | %d | %d | %.2fx |\n" id k b c (ratio_of c b))
      notable
  end;
  p "\n## Allocation\n\n";
  if shared = [] then p "No shared experiment carries `alloc_b`.\n"
  else begin
    p "| id | alloc (base) | alloc (cur) | Δ | gate |\n";
    p "|---|---:|---:|---:|---|\n";
    List.iter
      (fun (r, _, _) ->
        match r.alloc with
        | Gated { latest; median; breach } ->
            p "| %s | %d | %d | %.3fx | %s |\n" r.id median latest
              (ratio_of latest median)
              (if breach then "**REGRESSED**"
               else if r.exempt then "exempt (parallel)"
               else "ok")
        | No_data | One_point -> ())
      shared;
    List.iter
      (fun (r, _, _) ->
        match r.alloc with
        | Gated _ -> ()
        | No_data | One_point ->
            p "| %s | – | – | – | skipped (older report) |\n" r.id)
      shared
  end;
  (* Microbenchmarks are informational, never gated: timings are
     machine-dependent. *)
  let shared_micro =
    List.filter_map
      (fun (name, b) ->
        Option.map (fun c -> (name, b, c))
          (List.assoc_opt name current.benchmarks))
      baseline.benchmarks
  in
  if shared_micro <> [] then begin
    p "\n## Microbenchmarks (informational)\n\n";
    p "| benchmark | base ns/run | cur ns/run | Δ |\n";
    p "|---|---:|---:|---:|\n";
    List.iter
      (fun (name, b, c) ->
        p "| `%s` | %.0f | %.0f | %.2fx |\n" name b c (c /. Float.max 1. b))
      shared_micro
  end;
  let gated = count (fun r -> is_gated r.nodes) rows
  and regressions = count (fun r -> breached r.nodes) rows
  and alloc_regressions = count (fun r -> breached r.alloc) rows in
  p "\n## Verdict\n\n";
  if gated = 0 then begin
    p "No shared experiment reports `re.enum_nodes` — nothing to gate. \
       **FAIL**\n";
    1
  end
  else if regressions > 0 || alloc_regressions > 0 then begin
    if regressions > 0 then
      p "%d of %d gated experiment(s) regressed beyond %.2fx. **FAIL**\n"
        regressions gated gate_ratio;
    if alloc_regressions > 0 then
      p "%d experiment(s) regressed beyond %.2fx on allocation. **FAIL**\n"
        alloc_regressions alloc_gate_ratio;
    1
  end
  else begin
    p "All %d gated experiment(s) within %.2fx of baseline%s. **PASS**\n"
      gated gate_ratio
      (if List.exists (fun r -> is_gated r.alloc) rows then
         Printf.sprintf " (allocation within %.2fx)" alloc_gate_ratio
       else "");
    0
  end

let report baseline_file current_file =
  match (read_file baseline_file, read_file current_file) with
  | Error msg, _ -> unreadable "report" baseline_file msg
  | _, Error msg -> unreadable "report" current_file msg
  | Ok baseline, Ok current ->
      render_report ~baseline_file ~current_file baseline current

(* [history FILE...]: per-experiment trend tables over a series of
   reports given oldest first, so the bench trajectory is not
   pairwise-only; the median-of-window gate tolerates a single noisy
   report in the middle of the series. *)
let render_history loaded =
  let p = Printf.printf in
  let rows = evaluate (List.map snd loaded) in
  p "# Bench history (%d report(s))\n" (List.length loaded);
  p "\nGates: the newest `re.enum_nodes` of each experiment may not exceed \
     the median of up to %d previous report(s) by more than %.0f%%; the \
     newest `alloc_b` by more than %.0f%% (reports predating the alloc \
     fields are skipped).\n"
    history_window
    ((gate_ratio -. 1.) *. 100.)
    ((alloc_gate_ratio -. 1.) *. 100.);
  let print_trend id label = function
    | No_data -> p "\ntrend: no report carries `%s` for %s\n" label id
    | One_point -> p "\ntrend (%s): only one datapoint; nothing to gate\n" label
    | Gated { latest; median; breach } ->
        p "\ntrend (%s): latest %d vs median-of-previous %d (%.3fx) — %s\n"
          label latest median (ratio_of latest median)
          (if breach then "**REGRESSED**" else "ok")
  in
  List.iter
    (fun r ->
      p "\n## %s\n\n" r.id;
      p "| report | wall | re.enum_nodes | alloc_b |\n";
      p "|---|---:|---:|---:|\n";
      List.iter2
        (fun (file, _) entry ->
          match entry with
          | None -> p "| %s | – | – | – |\n" file
          | Some e ->
              p "| %s | %s | %s | %s |\n" file (pretty_ns e.wall_ns)
                (cell string_of_int (enum_nodes e))
                (cell string_of_int e.alloc_b))
        loaded r.entries;
      print_trend r.id "re.enum_nodes" r.nodes;
      if not r.exempt then print_trend r.id "alloc_b" r.alloc)
    rows;
  let regressions =
    count (fun r -> breached r.nodes) rows
    + count (fun r -> breached r.alloc) rows
  in
  p "\n## Verdict\n\n";
  if rows = [] then begin
    p "No experiments found in the series. **FAIL**\n";
    1
  end
  else if regressions > 0 then begin
    p "%d trend(s) regressed beyond their gate ratio (%.2fx nodes, %.2fx \
       alloc) of the trailing median. **FAIL**\n"
      regressions gate_ratio alloc_gate_ratio;
    1
  end
  else begin
    p "All gated trends within their gate ratio (%.2fx nodes, %.2fx alloc) \
       of the trailing median. **PASS**\n"
      gate_ratio alloc_gate_ratio;
    0
  end

let history files =
  let rec load acc = function
    | [] -> render_history (List.rev acc)
    | file :: rest -> (
        match read_file file with
        | Error msg -> unreadable "history" file msg
        | Ok r -> load ((file, r) :: acc) rest)
  in
  load [] files
