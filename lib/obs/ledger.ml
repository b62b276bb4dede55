(* Cross-invocation run ledger (schema slocal.run/1).

   Every kernel-facing CLI subcommand and every bench run appends one
   manifest record — argv, wall-clock interval, outcome, kernel mode,
   seed, problem canonical hashes, the final counter/gauge snapshot,
   key histogram quantiles and artifact paths — to an append-only
   JSONL file, so a multi-session lower-bound campaign has a durable
   history that `slocal runs` can list, render and diff.

   Crash tolerance mirrors Trace: each record is a single flushed
   line, the reader skips (and counts) damaged lines, so a run killed
   mid-append costs exactly one record, never the file. *)

let schema_version = "slocal.run/1"

type hist_summary = {
  hs_count : int;
  hs_sum : int;
  hs_p50 : int;
  hs_p90 : int;
  hs_p99 : int;
  hs_max : int;
}

type record = {
  id : string;
  argv : string list;
  started_at : float;
  finished_at : float;
  outcome : string;
  exit_code : int;
  kernel : string option;
  seed : int option;
  problems : (string * int) list;
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_summary) list;
  artifacts : (string * string) list;
  alloc_b : int;
      (* bytes allocated on the recording domain over the run;
         additive slocal.run/1 field, 0 on records from older writers *)
  majors : int;  (* major collections over the run; additive, 0 *)
  top_heap_words : int;  (* peak heap at finish; additive, 0 *)
}

let wall_seconds r = Float.max 0. (r.finished_at -. r.started_at)

(* ------------------------------------------------------------------ *)
(* Ledger location.  SLOCAL_LEDGER overrides the default
   [.slocal/runs.jsonl]; the values "", "off" and "none" disable the
   ledger entirely (CI jobs that must not touch the workspace). *)

let default_path () =
  match Sys.getenv_opt "SLOCAL_LEDGER" with
  | Some "" | Some "off" | Some "none" -> None
  | Some p -> Some p
  | None -> Some (Filename.concat ".slocal" "runs.jsonl")

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let hist_summary_to_json hs : Json.t =
  Json.Obj
    [
      ("count", Json.Int hs.hs_count);
      ("sum", Json.Int hs.hs_sum);
      ("p50", Json.Int hs.hs_p50);
      ("p90", Json.Int hs.hs_p90);
      ("p99", Json.Int hs.hs_p99);
      ("max", Json.Int hs.hs_max);
    ]

let to_json r : Json.t =
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("id", Json.String r.id);
      ("argv", Json.List (List.map (fun a -> Json.String a) r.argv));
      ("started_at", Json.Float r.started_at);
      ("finished_at", Json.Float r.finished_at);
      ("outcome", Json.String r.outcome);
      ("exit_code", Json.Int r.exit_code);
      ( "kernel",
        match r.kernel with None -> Json.Null | Some k -> Json.String k );
      ("seed", match r.seed with None -> Json.Null | Some s -> Json.Int s);
      ("problems", ints r.problems);
      ("counters", ints r.counters);
      ("gauges", ints r.gauges);
      ( "histograms",
        Json.Obj
          (List.map (fun (k, hs) -> (k, hist_summary_to_json hs)) r.histograms)
      );
      ( "artifacts",
        Json.Obj (List.map (fun (k, p) -> (k, Json.String p)) r.artifacts) );
      ("alloc_b", Json.Int r.alloc_b);
      ("majors", Json.Int r.majors);
      ("top_heap_words", Json.Int r.top_heap_words);
    ]

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let int_entries j k =
  match Option.bind (Json.member k j) Json.as_obj with
  | None -> Ok []
  | Some kvs ->
      List.fold_left
        (fun acc (nm, v) ->
          let* acc = acc in
          match Json.as_int v with
          | Some v -> Ok ((nm, v) :: acc)
          | None -> Error (Printf.sprintf "non-integer value for %S" nm))
        (Ok []) kvs
      |> Result.map List.rev

let hist_summary_of_json j =
  let field k =
    match Option.bind (Json.member k j) Json.as_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "histogram summary: missing %S" k)
  in
  let* hs_count = field "count" in
  let* hs_sum = field "sum" in
  let* hs_p50 = field "p50" in
  let* hs_p90 = field "p90" in
  let* hs_p99 = field "p99" in
  let* hs_max = field "max" in
  Ok { hs_count; hs_sum; hs_p50; hs_p90; hs_p99; hs_max }

let of_json j : (record, string) result =
  let str k =
    match Option.bind (Json.member k j) Json.as_string with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing string field %S" k)
  in
  let num k =
    match Json.member k j with
    | Some (Json.Float f) -> Ok f
    | Some (Json.Int i) -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "missing numeric field %S" k)
  in
  let* schema = str "schema" in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported schema %S" schema)
  else
    let* id = str "id" in
    let* argv =
      match Option.bind (Json.member "argv" j) Json.as_list with
      | None -> Error "missing list field \"argv\""
      | Some l ->
          List.fold_left
            (fun acc a ->
              let* acc = acc in
              match Json.as_string a with
              | Some s -> Ok (s :: acc)
              | None -> Error "non-string argv entry")
            (Ok []) l
          |> Result.map List.rev
    in
    let* started_at = num "started_at" in
    let* finished_at = num "finished_at" in
    let* outcome = str "outcome" in
    let* exit_code =
      match Option.bind (Json.member "exit_code" j) Json.as_int with
      | Some v -> Ok v
      | None -> Error "missing integer field \"exit_code\""
    in
    let kernel = Option.bind (Json.member "kernel" j) Json.as_string in
    let seed = Option.bind (Json.member "seed" j) Json.as_int in
    let* problems = int_entries j "problems" in
    let* counters = int_entries j "counters" in
    let* gauges = int_entries j "gauges" in
    let* histograms =
      match Option.bind (Json.member "histograms" j) Json.as_obj with
      | None -> Ok []
      | Some kvs ->
          List.fold_left
            (fun acc (nm, hj) ->
              let* acc = acc in
              let* hs = hist_summary_of_json hj in
              Ok ((nm, hs) :: acc))
            (Ok []) kvs
          |> Result.map List.rev
    in
    let* artifacts =
      match Option.bind (Json.member "artifacts" j) Json.as_obj with
      | None -> Ok []
      | Some kvs ->
          List.fold_left
            (fun acc (nm, v) ->
              let* acc = acc in
              match Json.as_string v with
              | Some p -> Ok ((nm, p) :: acc)
              | None -> Error "non-string artifact path")
            (Ok []) kvs
          |> Result.map List.rev
    in
    (* Additive fields: older records simply lack them. *)
    let opt_int k =
      Option.value ~default:0 (Option.bind (Json.member k j) Json.as_int)
    in
    Ok
      {
        id;
        argv;
        started_at;
        finished_at;
        outcome;
        exit_code;
        kernel;
        seed;
        problems;
        counters;
        gauges;
        histograms;
        artifacts;
        alloc_b = opt_int "alloc_b";
        majors = opt_int "majors";
        top_heap_words = opt_int "top_heap_words";
      }

(* ------------------------------------------------------------------ *)
(* Append and read *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* One record as a single flushed JSONL line, for run and request
   records alike. *)
let append_json ~path j =
  try
    mkdir_p (Filename.dirname path);
    let oc =
      open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Json.to_string j);
        output_char oc '\n';
        flush oc);
    Ok ()
  with
  | Sys_error msg -> Error msg
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let append ~path r = append_json ~path (to_json r)

(* Every non-blank line of a JSONL file, parsed, in file order. *)
let json_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line when String.trim line = "" -> go acc
    | line -> go (Json.of_string line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

type read_result = { records : record list; skipped : int; foreign : int }

let read_file path =
  let r =
    List.fold_left
      (fun acc -> function
        | Error _ -> { acc with skipped = acc.skipped + 1 }
        | Ok j -> (
            (* A well-formed record of some *other* schema (a
               slocal.request/1 line in a shared ledger, a future
               slocal.run/2) is foreign, not damaged: newer writers
               must not make older readers report corruption. *)
            match Option.bind (Json.member "schema" j) Json.as_string with
            | Some s when s <> schema_version ->
                { acc with foreign = acc.foreign + 1 }
            | _ -> (
                match of_json j with
                | Ok r -> { acc with records = r :: acc.records }
                | Error _ -> { acc with skipped = acc.skipped + 1 })))
      { records = []; skipped = 0; foreign = 0 }
      (json_lines path)
  in
  { r with records = List.rev r.records }

(* ------------------------------------------------------------------ *)
(* Record selection and comparison *)

let is_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let find { records; _ } key =
  if is_digits key then begin
    let n = List.length records in
    let i = int_of_string key in
    if i >= 1 && i <= n then Ok (List.nth records (i - 1))
    else Error (Printf.sprintf "run index %d out of range (1..%d)" i n)
  end
  else
    match
      List.filter
        (fun r -> String.starts_with ~prefix:key r.id)
        records
    with
    | [ r ] -> Ok r
    | [] -> Error (Printf.sprintf "no run with id prefix %S" key)
    | _ :: _ -> Error (Printf.sprintf "ambiguous id prefix %S" key)

let diff a b =
  let names =
    List.sort_uniq compare (List.map fst a.counters @ List.map fst b.counters)
  in
  List.filter_map
    (fun nm ->
      let va = Option.value (List.assoc_opt nm a.counters) ~default:0 in
      let vb = Option.value (List.assoc_opt nm b.counters) ~default:0 in
      if va = vb then None else Some (nm, va, vb))
    names

let gc ~path ~keep =
  try
    let { records; skipped; foreign } = read_file path in
    let n = List.length records in
    let dropped_records = max 0 (n - keep) in
    let kept =
      if dropped_records = 0 then records
      else List.filteri (fun i _ -> i >= dropped_records) records
    in
    let dir = Filename.dirname path in
    let tmp = Filename.temp_file ~temp_dir:dir "ledger" ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun r ->
            output_string oc (Json.to_string (to_json r));
            output_char oc '\n')
          kept);
    Sys.rename tmp path;
    Ok (List.length kept, dropped_records + skipped + foreign)
  with
  | Sys_error msg -> Error msg
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Per-request ledger records (schema slocal.request/1).  One line per
   daemon request, appended to the same kind of JSONL file as run
   records — possibly the *same* file, which is why the run reader
   above counts unknown schemas as foreign instead of damaged. *)

let request_schema_version = "slocal.request/1"

type request_record = {
  rr_id : string;
  rr_op : string;
  rr_problems : (string * int) list;
  rr_kernel : string option;
  rr_jobs : int;
  rr_wall_ns : int;
  rr_alloc_b : int;
  rr_cache_hits : int;
  rr_cache_misses : int;
  rr_outcome : string;
  rr_body : Json.t option;
}

let request_to_json r : Json.t =
  Json.Obj
    ([
      ("schema", Json.String request_schema_version);
      ("id", Json.String r.rr_id);
      ("op", Json.String r.rr_op);
      ( "problems",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.rr_problems) );
      ( "kernel",
        match r.rr_kernel with None -> Json.Null | Some k -> Json.String k );
      ("jobs", Json.Int r.rr_jobs);
      ("wall_ns", Json.Int r.rr_wall_ns);
      ("alloc_b", Json.Int r.rr_alloc_b);
      ("cache_hits", Json.Int r.rr_cache_hits);
      ("cache_misses", Json.Int r.rr_cache_misses);
      ("outcome", Json.String r.rr_outcome);
    ]
    @ match r.rr_body with Some b -> [ ("body", b) ] | None -> [])

let request_of_json j : (request_record, string) result =
  let str k =
    match Option.bind (Json.member k j) Json.as_string with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing string field %S" k)
  in
  let* schema = str "schema" in
  if schema <> request_schema_version then
    Error (Printf.sprintf "unsupported schema %S" schema)
  else
    let* rr_id = str "id" in
    let* rr_op = str "op" in
    let* rr_outcome = str "outcome" in
    let* rr_problems = int_entries j "problems" in
    let rr_kernel = Option.bind (Json.member "kernel" j) Json.as_string in
    let opt_int k =
      Option.value ~default:0 (Option.bind (Json.member k j) Json.as_int)
    in
    Ok
      {
        rr_id;
        rr_op;
        rr_problems;
        rr_kernel;
        rr_jobs = opt_int "jobs";
        rr_wall_ns = opt_int "wall_ns";
        rr_alloc_b = opt_int "alloc_b";
        rr_cache_hits = opt_int "cache_hits";
        rr_cache_misses = opt_int "cache_misses";
        rr_outcome;
        rr_body = Json.member "body" j;
      }

let append_request ~path r = append_json ~path (request_to_json r)

let read_requests_file path =
  let parsed =
    List.map (fun l -> Result.bind l request_of_json) (json_lines path)
  in
  ( List.filter_map Result.to_option parsed,
    List.length (List.filter Result.is_error parsed) )

(* ------------------------------------------------------------------ *)
(* The in-process run context.  [begin_run] opens it; the [note_*]
   calls fill it in from wherever the information lives (argument
   parsing, problem construction, artifact setup); [finish_run]
   snapshots the telemetry registry, appends the record and closes the
   context.  Appending is best-effort: a read-only working directory
   must never fail the run itself. *)

(* staticcheck: per-call one ledger record per CLI invocation; owned by the coordinating domain *)
type ctx = {
  c_id : string;
  c_argv : string list;
  c_started : float;
  c_alloc0 : float;  (* Gc.allocated_bytes at begin_run *)
  c_majors0 : int;  (* major_collections at begin_run *)
  mutable c_kernel : string option;
  mutable c_seed : int option;
  mutable c_problems : (string * int) list;
  mutable c_artifacts : (string * string) list;
  mutable c_exit : int;
  mutable c_done : bool;
}

let active : ctx option ref = ref None (* staticcheck: per-call one active run per process; written only by the CLI wrapper *)

let fresh_id () =
  let t = Unix.gettimeofday () in
  Printf.sprintf "%08x%04x"
    (int_of_float (t *. 1000.) land 0xffffffff)
    (Unix.getpid () land 0xffff)

let begin_run ~argv =
  active :=
    Some
      {
        c_id = fresh_id ();
        c_argv = argv;
        c_started = Unix.gettimeofday ();
        c_alloc0 = Gc.allocated_bytes ();
        c_majors0 = (Gc.quick_stat ()).Gc.major_collections;
        c_kernel = None;
        c_seed = None;
        c_problems = [];
        c_artifacts = [];
        c_exit = 0;
        c_done = false;
      }

let with_ctx f = match !active with None -> () | Some c -> f c
let note_kernel k = with_ctx (fun c -> c.c_kernel <- Some k)
let note_seed s = with_ctx (fun c -> c.c_seed <- Some s)

let note_problem ~name ~hash =
  with_ctx (fun c ->
      if not (List.mem (name, hash) c.c_problems) then
        c.c_problems <- c.c_problems @ [ (name, hash) ])

let note_artifact ~kind path =
  with_ctx (fun c ->
      if not (List.mem_assoc kind c.c_artifacts) then
        c.c_artifacts <- c.c_artifacts @ [ (kind, path) ])

let note_exit code = with_ctx (fun c -> c.c_exit <- code)

let snapshot_record c ~outcome =
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
          {
            hs_count = Telemetry.Histogram.count h;
            hs_sum = Telemetry.Histogram.sum h;
            hs_p50 = Telemetry.Histogram.quantile h 0.5;
            hs_p90 = Telemetry.Histogram.quantile h 0.9;
            hs_p99 = Telemetry.Histogram.quantile h 0.99;
            hs_max = Telemetry.Histogram.max_value h;
          } ))
      (Telemetry.histogram_snapshot ())
  in
  let q = Gc.quick_stat () in
  {
    id = c.c_id;
    argv = c.c_argv;
    started_at = c.c_started;
    finished_at = Unix.gettimeofday ();
    outcome;
    exit_code = c.c_exit;
    kernel = c.c_kernel;
    seed = c.c_seed;
    problems = c.c_problems;
    counters = List.rev counters;
    gauges = List.rev gauges;
    histograms;
    artifacts = c.c_artifacts;
    alloc_b = int_of_float (Gc.allocated_bytes () -. c.c_alloc0);
    majors = q.Gc.major_collections - c.c_majors0;
    top_heap_words = q.Gc.top_heap_words;
  }

let finish_run ~outcome =
  with_ctx (fun c ->
      if not c.c_done then begin
        c.c_done <- true;
        match default_path () with
        | None -> ()
        | Some path ->
            (* Best-effort by design; see the comment above. *)
            ignore (append ~path (snapshot_record c ~outcome))
      end)
