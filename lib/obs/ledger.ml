(* The ledger (schema slocal.request/1).

   One record type for every writer.  Each kernel-facing CLI
   invocation and each bench run appends one record — op, argv,
   start time and wall time, outcome, seed, problem canonical
   hashes, the final counter snapshot, key histogram
   quantiles and artifact paths — and [slocal serve --record] appends
   one per work request with its cost summary and body.  A
   multi-session lower-bound campaign so has one durable history that
   `slocal runs` can list, render, diff and compact, and that
   `slocal client --replay` re-sends.

   Crash tolerance mirrors Trace: each record is a single flushed
   line, the reader skips (and counts) damaged lines, so a run killed
   mid-append costs exactly one record, never the file. *)

let schema_version = "slocal.request/1"

(* Run records written before the merge; read, never written. *)
let legacy_schema_version = "slocal.run/1"

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
  op : string;
  problems : (string * int) list;
  wall_ns : int;
  alloc_b : int;
  cache_hits : int;
  cache_misses : int;
  outcome : string;
  argv : string list;
  started_at : float;
  exit_code : int;
  seed : int option;
  counters : (string * int) list;
  histograms : (string * hist_summary) list;
  artifacts : (string * string) list;
  majors : int;
  top_heap_words : int;
  body : Json.t option;
}

let empty =
  {
    id = "";
    op = "";
    problems = [];
    wall_ns = 0;
    alloc_b = 0;
    cache_hits = 0;
    cache_misses = 0;
    outcome = "";
    argv = [];
    started_at = 0.;
    exit_code = 0;
    seed = None;
    counters = [];
    histograms = [];
    artifacts = [];
    majors = 0;
    top_heap_words = 0;
    body = None;
  }

let wall_seconds r = float_of_int r.wall_ns /. 1e9

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
(* JSON codec.  The request fields come first, in the order daemon
   replies have always carried them; the run-only fields and the body
   follow and are written only when they differ from [empty], so a
   daemon record serializes exactly as it did before the merge. *)

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
  let unless_default k is_default v =
    if is_default then [] else [ (k, v ()) ]
  in
  Json.Obj
    ([
       ("schema", Json.String schema_version);
       ("id", Json.String r.id);
       ("op", Json.String r.op);
       ("problems", ints r.problems);
       ("wall_ns", Json.Int r.wall_ns);
       ("alloc_b", Json.Int r.alloc_b);
       ("cache_hits", Json.Int r.cache_hits);
       ("cache_misses", Json.Int r.cache_misses);
       ("outcome", Json.String r.outcome);
     ]
    @ List.concat
        [
          unless_default "argv" (r.argv = []) (fun () ->
              Json.List (List.map (fun a -> Json.String a) r.argv));
          unless_default "started_at" (r.started_at = 0.) (fun () ->
              Json.Float r.started_at);
          unless_default "exit_code" (r.exit_code = 0) (fun () ->
              Json.Int r.exit_code);
          unless_default "seed" (r.seed = None) (fun () ->
              Json.Int (Option.get r.seed));
          unless_default "counters" (r.counters = []) (fun () ->
              ints r.counters);
          unless_default "histograms" (r.histograms = []) (fun () ->
              Json.Obj
                (List.map
                   (fun (k, hs) -> (k, hist_summary_to_json hs))
                   r.histograms));
          unless_default "artifacts" (r.artifacts = []) (fun () ->
              Json.Obj
                (List.map (fun (k, p) -> (k, Json.String p)) r.artifacts));
          unless_default "majors" (r.majors = 0) (fun () -> Json.Int r.majors);
          unless_default "top_heap_words" (r.top_heap_words = 0) (fun () ->
              Json.Int r.top_heap_words);
          unless_default "body" (r.body = None) (fun () -> Option.get r.body);
        ])

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

(* The entries of object field [k] (absent = none), each converted by
   [f] or the whole field rejected. *)
let entries j k f =
  match Option.bind (Json.member k j) Json.as_obj with
  | None -> Ok []
  | Some kvs ->
      List.fold_left
        (fun acc (nm, v) ->
          let* acc = acc in
          let* v = f nm v in
          Ok ((nm, v) :: acc))
        (Ok []) kvs
      |> Result.map List.rev

let int_entry nm v =
  match Json.as_int v with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "non-integer value for %S" nm)

let hist_summary_of_json _ j =
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

(* One reader for both schemas: a slocal.run/1 line has no op and
   carries [finished_at] where slocal.request/1 carries [wall_ns]. *)
let of_json j : (record, string) result =
  let str k =
    match Option.bind (Json.member k j) Json.as_string with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing string field %S" k)
  in
  let* schema = str "schema" in
  let legacy = schema = legacy_schema_version in
  if schema <> schema_version && not legacy then
    Error (Printf.sprintf "unsupported schema %S" schema)
  else
    let num k =
      match Json.member k j with
      | Some (Json.Float f) -> Ok f
      | Some (Json.Int i) -> Ok (float_of_int i)
      | None when not legacy -> Ok 0.
      | _ -> Error (Printf.sprintf "missing numeric field %S" k)
    in
    let opt_int k =
      Option.value ~default:0 (Option.bind (Json.member k j) Json.as_int)
    in
    let* id = str "id" in
    let* op = if legacy then Ok "" else str "op" in
    let* outcome = str "outcome" in
    let* started_at = num "started_at" in
    let* wall_ns =
      if legacy then
        let* finished_at = num "finished_at" in
        let wall_s = Float.max 0. (finished_at -. started_at) in
        Ok (Float.to_int (Float.round (wall_s *. 1e9)))
      else Ok (opt_int "wall_ns")
    in
    let* argv =
      match Json.member "argv" j with
      | None -> Ok []
      | Some (Json.List l)
        when List.for_all (fun a -> Json.as_string a <> None) l ->
          Ok (List.filter_map Json.as_string l)
      | Some _ -> Error "argv is not a list of strings"
    in
    let* problems = entries j "problems" int_entry in
    let* counters = entries j "counters" int_entry in
    let* histograms = entries j "histograms" hist_summary_of_json in
    let* artifacts =
      entries j "artifacts" (fun _ v ->
          Option.to_result ~none:"non-string artifact path" (Json.as_string v))
    in
    Ok
      {
        id;
        op;
        problems;
        wall_ns;
        alloc_b = opt_int "alloc_b";
        cache_hits = opt_int "cache_hits";
        cache_misses = opt_int "cache_misses";
        outcome;
        argv;
        started_at;
        exit_code = opt_int "exit_code";
        seed = Option.bind (Json.member "seed" j) Json.as_int;
        counters;
        histograms;
        artifacts;
        majors = opt_int "majors";
        top_heap_words = opt_int "top_heap_words";
        body = Json.member "body" j;
      }

(* ------------------------------------------------------------------ *)
(* Append and read *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let append ~path r =
  try
    mkdir_p (Filename.dirname path);
    let oc =
      open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Json.to_string (to_json r));
        output_char oc '\n';
        flush oc);
    Ok ()
  with
  | Sys_error msg -> Error msg
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

type read_result = { records : record list; skipped : int }

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go records skipped =
    match input_line ic with
    | line when String.trim line = "" -> go records skipped
    | line -> (
        match Result.bind (Json.of_string line) of_json with
        | Ok r -> go (r :: records) skipped
        | Error _ -> go records (skipped + 1))
    | exception End_of_file -> { records = List.rev records; skipped }
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Record selection and comparison *)

let is_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let find { records; _ } key =
  if is_digits key then begin
    let n = List.length records in
    match int_of_string_opt key with
    | Some i when i >= 1 && i <= n -> Ok (List.nth records (i - 1))
    | i ->
        Error
          (Printf.sprintf "run index %s out of range (1..%d)"
             (Option.fold ~none:key ~some:string_of_int i)
             n)
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
  if keep < 0 then Error (Printf.sprintf "keep must be at least 0, got %d" keep)
  else
    try
      let { records; skipped } = read_file path in
      let n = List.length records in
      let dropped_records = max 0 (n - keep) in
      let kept = List.filteri (fun i _ -> i >= dropped_records) records in
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
      Ok (List.length kept, dropped_records + skipped)
    with
    | Sys_error msg -> Error msg
    | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* The in-process run context.  [begin_run] opens it; the [note_*]
   calls fill it in from wherever the information lives (argument
   parsing, problem construction, artifact setup); [finish_run]
   snapshots the telemetry registry, appends the record and closes the
   context.  Appending is best-effort: a read-only working directory
   must never fail the run itself. *)

(* One record per CLI invocation, owned by the coordinating domain. *)
type ctx = {
  c_id : string;
  c_op : string;
  c_argv : string list;
  c_started : float;
  c_alloc0 : float;  (* Gc.allocated_bytes at begin_run *)
  c_majors0 : int;  (* major_collections at begin_run *)
  mutable c_seed : int option;
  mutable c_problems : (string * int) list;
  mutable c_artifacts : (string * string) list;
  mutable c_exit : int;
  mutable c_done : bool;
}

(* One active run per process; written only by the CLI wrapper. *)
let active : ctx option ref = ref None

let fresh_id () =
  let t = Unix.gettimeofday () in
  Printf.sprintf "%08x%04x"
    (int_of_float (t *. 1000.) land 0xffffffff)
    (Unix.getpid () land 0xffff)

let begin_run ~op ~argv =
  active :=
    Some
      {
        c_id = fresh_id ();
        c_op = op;
        c_argv = argv;
        c_started = Unix.gettimeofday ();
        c_alloc0 = Gc.allocated_bytes ();
        c_majors0 = (Gc.quick_stat ()).Gc.major_collections;
        c_seed = None;
        c_problems = [];
        c_artifacts = [];
        c_exit = 0;
        c_done = false;
      }

let with_ctx f = match !active with None -> () | Some c -> f c
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
  let counters = Telemetry.nonzero_snapshot () in
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
  let counter nm = Option.value ~default:0 (List.assoc_opt nm counters) in
  {
    id = c.c_id;
    op = c.c_op;
    problems = c.c_problems;
    wall_ns = Float.to_int ((Unix.gettimeofday () -. c.c_started) *. 1e9);
    alloc_b = Float.to_int (Gc.allocated_bytes () -. c.c_alloc0);
    cache_hits = counter "re.cache_hits";
    cache_misses = counter "re.cache_misses";
    outcome;
    argv = c.c_argv;
    started_at = c.c_started;
    exit_code = c.c_exit;
    seed = c.c_seed;
    counters;
    histograms;
    artifacts = c.c_artifacts;
    majors = q.Gc.major_collections - c.c_majors0;
    top_heap_words = q.Gc.top_heap_words;
    body = None;
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
