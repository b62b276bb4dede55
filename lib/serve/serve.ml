(* The slocal serve daemon core: a JSONL request loop over a
   Unix-domain socket, one Telemetry.with_request window per work
   request (DESIGN.md §10). *)

open Slocal_formalism
module Json = Slocal_obs.Json
module Ledger = Slocal_obs.Ledger
module Telemetry = Slocal_obs.Telemetry
module Openmetrics = Slocal_obs.Openmetrics
module Solver = Slocal_model.Solver
module Framework = Supported_local.Framework
module Diagnostic = Slocal_analysis.Diagnostic

(* serve.requests/serve.errors tick inside the request window (so they
   take part in the per-request sum invariant); serve.connections,
   serve.heartbeats and serve.control tick between windows and are the
   documented out-of-window carve-out of the stats op's check. *)
let c_requests = Telemetry.counter "serve.requests"
let c_errors = Telemetry.counter "serve.errors"
let c_connections = Telemetry.counter "serve.connections"
let c_heartbeats = Telemetry.counter "serve.heartbeats"
let c_control = Telemetry.counter "serve.control"

let out_of_window = [ "serve.connections"; "serve.heartbeats"; "serve.control" ]

(* Counters ticked asynchronously, inside or outside a window: the
   major-cycle alarm of a traced daemon counts gc.majors whenever a
   cycle ends.  A window can only have seen part of their movement. *)
let asynchronous = [ "gc.majors" ]

(* The Ops spec parsers, under the names library clients of the
   daemon use. *)
let parse_problem_spec = Ops.parse_problem
let parse_graph_spec = Ops.parse_graph

(* ------------------------------------------------------------------ *)
(* Daemon state. *)

type config = {
  record : string option;
  heartbeat : out_channel option;
  heartbeat_interval_ns : int64;
}

let default_config =
  {
    record = None;
    heartbeat = None;
    heartbeat_interval_ns = 500_000_000L;
  }

(* One state per daemon run, owned by the single serving domain;
   requests are handled sequentially. *)
type state = {
  cfg : config;
  started_ns : int64;
  baseline : (string * int) list;
  mutable served : int;
  mutable errors : int;
  mutable auto_id : int;
  mutable stop : bool;
  mutable totals : (string * int) list;
  mutable hb_last : int64;
}

let create ?(config = default_config) () =
  let started = Telemetry.now_ns () in
  {
    cfg = config;
    started_ns = started;
    baseline = Telemetry.snapshot ();
    served = 0;
    errors = 0;
    auto_id = 0;
    stop = false;
    totals = [];
    (* Back-dated so the first heartbeat opportunity emits. *)
    hb_last = Int64.sub started config.heartbeat_interval_ns;
  }

let served st = st.served
let errored st = st.errors
let stopped st = st.stop
let request_totals st = st.totals

let merge_counters totals deltas =
  List.fold_left
    (fun acc (nm, v) ->
      let cur = Option.value ~default:0 (List.assoc_opt nm acc) in
      (nm, cur + v) :: List.remove_assoc nm acc)
    totals deltas
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Request fields. *)

let member_string req k = Option.bind (Json.member k req) Json.as_string
let member_int req k = Option.bind (Json.member k req) Json.as_int

let require_string req k =
  match member_string req k with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "missing field %S" k)

let opt_int_json = function Some v -> Json.Int v | None -> Json.Null

(* ------------------------------------------------------------------ *)
(* Work ops: the request fields mapped onto one Ops call, the typed
   result rendered as the response's [result] object. *)

let outcome_name = function
  | Solver.Solution _ -> "solution"
  | Solver.No_solution -> "no_solution"
  | Solver.Budget_exceeded -> "budget_exceeded"

let certificate_name = function
  | Framework.Unsolvable_by_search -> "unsolvable-by-search"
  | Framework.Solvable _ -> "solvable"
  | Framework.Undecided -> "undecided"

let is_work_op = function
  | "re" | "sequence" | "solve" | "audit" -> true
  | _ -> false

let work_op ~problems req op =
  let max_nodes = member_int req "budget" in
  let int_field k ~default ~min =
    max min (Option.value ~default (member_int req k))
  in
  let problem () =
    let p = Ops.parse_problem (require_string req "problem") in
    problems := (p.Problem.name, Problem.canonical_hash p) :: !problems;
    p
  in
  let graph () = Ops.parse_graph (require_string req "graph") in
  match op with
  | "re" ->
      let steps = int_field "steps" ~default:1 ~min:1 in
      let r = Ops.re ~steps (problem ()) in
      let q = Ops.last r in
      let text =
        match Option.bind (Json.member "text" req) Json.as_bool with
        | Some true -> [ ("text", Json.String (Problem.to_string q)) ]
        | _ -> []
      in
      Json.Obj
        ([
           ("steps", Json.Int steps);
           ("labels", Json.Int (Alphabet.size q.Problem.alphabet));
           ("white_configs", Json.Int (Constr.size q.Problem.white));
           ("black_configs", Json.Int (Constr.size q.Problem.black));
           ("hash", Json.Int (Problem.canonical_hash q));
           ("fixed_point", Json.Bool r.Ops.fixed_point);
         ]
        @ text)
  | "sequence" ->
      let steps = int_field "steps" ~default:1 ~min:0 in
      let r = Ops.sequence ?max_nodes ~steps (problem ()) in
      Json.Obj
        [
          ("length", Json.Int (List.length r.Ops.sequence));
          ( "hashes",
            Json.List
              (List.map
                 (fun q -> Json.Int (Problem.canonical_hash q))
                 r.Ops.sequence) );
          ( "lower_bound",
            match r.Ops.lower_bound with
            | Some b -> Json.Bool b
            | None -> Json.Null );
        ]
  | "solve" ->
      let p = problem () in
      let r = Ops.solve ?max_nodes (graph ()) p in
      let s = r.Ops.stats in
      Json.Obj
        [
          ("outcome", Json.String (outcome_name r.Ops.outcome));
          ("nodes", Json.Int s.Solver.nodes);
          ("backtracks", Json.Int s.Solver.backtracks);
          ("budget_exhausted", Json.Bool s.Solver.budget_exhausted);
        ]
  | "audit" ->
      let p = problem () in
      let k = int_field "k" ~default:1 ~min:1 in
      let r = Ops.audit ?max_nodes ~k (graph ()) p in
      let a = r.Ops.analysis in
      Json.Obj
        [
          ("support_nodes", Json.Int a.Framework.support_nodes);
          ("girth", opt_int_json a.Framework.girth);
          ( "certificate",
            Json.String (certificate_name a.Framework.certificate) );
          ("det_rounds", opt_int_json a.Framework.det_rounds);
          ("diagnostics", Json.Int (List.length r.Ops.diagnostics));
          ("exit_code", Json.Int (Diagnostic.exit_code r.Ops.diagnostics));
        ]
  | op -> invalid_arg (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* Control ops: outside any request window, so [stats] reads the
   registry at a quiescent point. *)

let stats_json st =
  let since = Telemetry.delta ~before:st.baseline ~after:(Telemetry.snapshot ()) in
  (* The sum invariant: every counter attributed to a request window
     matches the registry's movement since daemon start, and every
     counter that moved without attribution is one of the daemon's own
     out-of-window counters.  An asynchronous counter's window total
     only has to stay within its registry movement. *)
  let moved nm = Option.value ~default:0 (List.assoc_opt nm since) in
  let attributed nm = Option.value ~default:0 (List.assoc_opt nm st.totals) in
  let accounted nm =
    if List.mem nm asynchronous then attributed nm <= moved nm
    else attributed nm = moved nm
  in
  let check_sum =
    List.for_all (fun (nm, _) -> accounted nm) st.totals
    && List.for_all
         (fun (nm, _) -> accounted nm || List.mem nm out_of_window)
         since
  in
  let hits = Telemetry.value (Telemetry.counter "re.cache_hits") in
  let misses = Telemetry.value (Telemetry.counter "re.cache_misses") in
  let obj kvs = Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) kvs) in
  Json.Obj
    [
      ( "uptime_ns",
        Json.Int (Int64.to_int (Int64.sub (Telemetry.now_ns ()) st.started_ns))
      );
      ("served", Json.Int st.served);
      ("errors", Json.Int st.errors);
      ("cache", Json.Obj [ ("hits", Json.Int hits); ("misses", Json.Int misses) ]);
      ("request_totals", obj st.totals);
      ("counters_since_start", obj since);
      ("check_sum", Json.Bool check_sum);
    ]

let control_op st op =
  match op with
  | "stats" -> stats_json st
  | "metrics" ->
      Json.Obj
        [
          ("content_type", Json.String "application/openmetrics-text");
          ("text", Json.String (Openmetrics.render ()));
        ]
  | "shutdown" ->
      st.stop <- true;
      Json.Obj [ ("stopping", Json.Bool true); ("served", Json.Int st.served) ]
  | "" -> invalid_arg "missing field \"op\""
  | op -> invalid_arg (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* One request. *)

let error_text e =
  match Ops.error_message e with Some m -> m | None -> Printexc.to_string e

let reply ~id ~op body extra =
  Json.Obj
    ([ ("id", Json.String id); ("op", Json.String op) ]
    @ (match body with
      | Ok r -> [ ("ok", Json.Bool true); ("result", r) ]
      | Error msg -> [ ("ok", Json.Bool false); ("error", Json.String msg) ])
    @ extra)

let handle_request st req =
  let id =
    match member_string req "id" with
    | Some s -> s
    | None ->
        st.auto_id <- st.auto_id + 1;
        Printf.sprintf "r%d" st.auto_id
  in
  let op = Option.value ~default:"" (member_string req "op") in
  st.served <- st.served + 1;
  if is_work_op op then begin
    let problems = ref [] in
    let body, summary =
      Telemetry.with_request ~id (fun () ->
          Telemetry.incr c_requests;
          match work_op ~problems req op with
          | j -> Ok j
          | exception e ->
              Telemetry.incr c_errors;
              Error (error_text e))
    in
    (match body with Error _ -> st.errors <- st.errors + 1 | Ok _ -> ());
    let cdelta nm =
      Option.value ~default:0
        (List.assoc_opt nm summary.Telemetry.rq_counters)
    in
    let rr =
      {
        Ledger.empty with
        id;
        op;
        problems = List.rev !problems;
        wall_ns = Int64.to_int summary.Telemetry.rq_wall_ns;
        alloc_b = summary.Telemetry.rq_alloc_b;
        cache_hits = cdelta "re.cache_hits";
        cache_misses = cdelta "re.cache_misses";
        outcome = (match body with Ok _ -> "ok" | Error _ -> "error");
      }
    in
    st.totals <- merge_counters st.totals summary.Telemetry.rq_counters;
    Telemetry.Histogram.record
      (Telemetry.histogram "serve.request_ns")
      (Int64.to_int summary.Telemetry.rq_wall_ns);
    (match st.cfg.record with
    | Some path -> (
        match Ledger.append ~path { rr with Ledger.body = Some req } with
        | Ok () -> ()
        | Error msg -> Printf.eprintf "serve: record: %s\n%!" msg)
    | None -> ());
    reply ~id ~op body
      [
        ("request", Ledger.to_json rr);
        ( "counters",
          Json.Obj
            (List.map
               (fun (n, v) -> (n, Json.Int v))
               summary.Telemetry.rq_counters) );
      ]
  end
  else begin
    Telemetry.incr c_control;
    let body =
      match control_op st op with
      | j -> Ok j
      | exception e ->
          st.errors <- st.errors + 1;
          Error (error_text e)
    in
    reply ~id ~op body []
  end

let handle_line st line =
  let resp =
    match Json.of_string line with
    | Error msg ->
        Json.Obj
          [
            ("ok", Json.Bool false);
            ("error", Json.String ("invalid JSON: " ^ msg));
          ]
    | Ok req -> handle_request st req
  in
  Json.to_string resp

(* ------------------------------------------------------------------ *)
(* Heartbeats. *)

let maybe_heartbeat st =
  match st.cfg.heartbeat with
  | None -> ()
  | Some oc ->
      let now = Telemetry.now_ns () in
      if Int64.sub now st.hb_last >= st.cfg.heartbeat_interval_ns then begin
        st.hb_last <- now;
        Telemetry.incr c_heartbeats;
        let hits = Telemetry.value (Telemetry.counter "re.cache_hits") in
        let misses = Telemetry.value (Telemetry.counter "re.cache_misses") in
        let rate =
          if hits + misses = 0 then 0.
          else 100. *. float_of_int hits /. float_of_int (hits + misses)
        in
        Printf.fprintf oc
          "[serve] up %.1fs  served %d  errors %d  re-cache %d/%d (%.1f%% \
           hits)\n\
           %!"
          (Int64.to_float (Int64.sub now st.started_ns) /. 1e9)
          st.served st.errors hits (hits + misses) rate
      end

(* ------------------------------------------------------------------ *)
(* The socket loop. *)

let serve ~socket st =
  if Sys.file_exists socket then Sys.remove socket;
  (* A client hanging up mid-reply must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 8;
  while not st.stop do
    let cfd, _ = Unix.accept fd in
    Telemetry.incr c_connections;
    let ic = Unix.in_channel_of_descr cfd in
    let oc = Unix.out_channel_of_descr cfd in
    (try
       let continue = ref true in
       while !continue && not st.stop do
         match input_line ic with
         | line ->
             if String.trim line <> "" then begin
               output_string oc (handle_line st line);
               output_char oc '\n';
               flush oc;
               maybe_heartbeat st
             end
         | exception End_of_file -> continue := false
       done
     with Sys_error _ | Unix.Unix_error _ -> ());
    (try flush oc with Sys_error _ -> ());
    try Unix.close cfd with Unix.Unix_error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Client helpers. *)

type conn = { c_fd : Unix.file_descr; c_ic : in_channel; c_oc : out_channel }

let rec wait_connect ~socket deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
      {
        c_fd = fd;
        c_ic = Unix.in_channel_of_descr fd;
        c_oc = Unix.out_channel_of_descr fd;
      }
  | exception
      Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
    when Telemetry.now_ns () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.02;
      wait_connect ~socket deadline
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let connect ?(wait_s = 0.) ~socket () =
  let deadline =
    Int64.add (Telemetry.now_ns ()) (Int64.of_float (wait_s *. 1e9))
  in
  wait_connect ~socket deadline

let roundtrip conn req =
  output_string conn.c_oc (Json.to_string req);
  output_char conn.c_oc '\n';
  flush conn.c_oc;
  match input_line conn.c_ic with
  | line -> Json.of_string line
  | exception End_of_file -> Error "connection closed"

let disconnect conn =
  (try flush conn.c_oc with Sys_error _ -> ());
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
