(* Tests for the slocal serve daemon core: the JSONL protocol, the
   per-request counter-delta isolation invariant (disjoint windows
   summing to the global registry delta), record/replay through
   slocal.request/1 ledger records, and the Unix-socket loop end to
   end. *)

module Json = Slocal_obs.Json
module Telemetry = Slocal_obs.Telemetry
module Ledger = Slocal_obs.Ledger
module Serve = Slocal_serve.Serve

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let with_clean_telemetry f =
  Telemetry.reset_metrics ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_sink Telemetry.null_sink;
      Telemetry.reset_metrics ())
    f

let with_tmp name f =
  let file = Filename.temp_file name "" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
  @@ fun () -> f file

(* Round one line through the daemon and parse the reply. *)
let ask st line =
  match Json.of_string (Serve.handle_line st line) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "unparsable response: %s" msg

let member k j = Json.member k j
let str k j = Option.bind (member k j) Json.as_string
let boolean k j = Option.bind (member k j) Json.as_bool

let is_ok j = boolean "ok" j = Some true

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let counters_of j =
  match member "counters" j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (n, v) -> Option.map (fun v -> (n, v)) (Json.as_int v))
        kvs
  | _ -> []

let assoc0 n kvs = Option.value ~default:0 (List.assoc_opt n kvs)

let merge a b =
  List.fold_left
    (fun acc (n, v) -> (n, assoc0 n acc + v) :: List.remove_assoc n acc)
    a b

(* ------------------------------------------------------------------ *)
(* Protocol basics *)

let test_re_warm_cache () =
  with_clean_telemetry @@ fun () ->
  let st = Serve.create () in
  let line = {|{"op":"re","problem":"mm:3"}|} in
  let r1 = ask st line in
  let r2 = ask st line in
  check bool_t "first request ok" true (is_ok r1);
  check bool_t "second request ok" true (is_ok r2);
  check (Alcotest.option string_t) "auto id r1" (Some "r1") (str "id" r1);
  check (Alcotest.option string_t) "auto id r2" (Some "r2") (str "id" r2);
  (* Identical results from the cold and the warm path. *)
  let hash j = Option.bind (member "result" j) (member "hash") in
  check bool_t "same problem hash" true (hash r1 = hash r2 && hash r1 <> None);
  (* The second window hits the cache the first one filled — and the
     windows are disjoint: the misses live in r1's delta only, the
     hits in r2's. *)
  let c1 = counters_of r1 and c2 = counters_of r2 in
  check bool_t "cold request misses" true (assoc0 "re.cache_misses" c1 > 0);
  check int_t "cold request does not hit" 0 (assoc0 "re.cache_hits" c1);
  check bool_t "warm request hits" true (assoc0 "re.cache_hits" c2 > 0);
  check int_t "warm request does not miss" 0 (assoc0 "re.cache_misses" c2);
  check int_t "each window counts itself once" 1 (assoc0 "request.count" c1);
  check int_t "served" 2 (Serve.served st);
  check int_t "no errors" 0 (Serve.errored st)

let test_unknown_op_and_bad_json () =
  with_clean_telemetry @@ fun () ->
  let st = Serve.create () in
  let r = ask st {|{"op":"frobnicate"}|} in
  check bool_t "unknown op refused" false (is_ok r);
  check bool_t "error names the op" true
    (match str "error" r with
    | Some m -> String.length m > 0
    | None -> false);
  (* Unknown ops are control traffic: no request record, no window. *)
  check bool_t "no request record" true (member "request" r = None);
  let r = ask st "this is not json" in
  check bool_t "bad json refused" false (is_ok r);
  check int_t "one protocol error counted" 1 (Serve.errored st)

let test_work_op_error_record () =
  with_clean_telemetry @@ fun () ->
  let st = Serve.create () in
  let r = ask st {|{"op":"re","problem":"bogus:9"}|} in
  check bool_t "bad spec refused" false (is_ok r);
  (* A failed work op still ran inside a window and still yields its
     slocal.request/1 record, marked as an error. *)
  (match Option.map Ledger.of_json (member "request" r) with
  | Some (Ok rr) ->
      check string_t "outcome is error" "error" rr.Ledger.outcome;
      check string_t "op recorded" "re" rr.Ledger.op
  | _ -> Alcotest.fail "missing or unparsable request record");
  check int_t "errored" 1 (Serve.errored st);
  check bool_t "window still charged the attempt" true
    (assoc0 "serve.errors" (counters_of r) = 1
    && assoc0 "serve.requests" (counters_of r) = 1)

let test_metrics_op () =
  with_clean_telemetry @@ fun () ->
  let st = Serve.create () in
  ignore (ask st {|{"op":"re","problem":"mm:3"}|});
  let r = ask st {|{"op":"metrics"}|} in
  check bool_t "metrics ok" true (is_ok r);
  let text =
    Option.value ~default:""
      (Option.bind (member "result" r) (str "text"))
  in
  (* The OpenMetrics exposition carries the slocal_ name prefix. *)
  check bool_t "exposition mentions slocal_ metrics" true
    (contains text "slocal_")

(* The [result] object of one request per work op, pinned as a literal:
   the protocol answer for a fixed request must not drift.  Nor may the
   key list of the reply's [request] record: clients read its fields by
   name, and the order is part of the byte-identical reply. *)
let request_keys =
  [ "schema"; "id"; "op"; "problems"; "wall_ns"; "alloc_b";
    "cache_hits"; "cache_misses"; "outcome" ]

let test_result_goldens () =
  with_clean_telemetry @@ fun () ->
  (* Leave the RE cache cold for the isolation tests that follow. *)
  Fun.protect ~finally:Slocal_formalism.Re_step.clear_cache @@ fun () ->
  let st = Serve.create () in
  List.iter
    (fun (line, want) ->
      let r = ask st line in
      check bool_t (line ^ " ok") true (is_ok r);
      check (Alcotest.list string_t) (line ^ " request keys") request_keys
        (match member "request" r with
        | Some (Json.Obj kvs) -> List.map fst kvs
        | _ -> []);
      check string_t line want
        (match member "result" r with
        | Some j -> Json.to_string j
        | None -> "<no result>"))
    [
      ( {|{"op":"re","problem":"mm:3"}|},
        {|{"steps":1,"labels":6,"white_configs":3,"black_configs":31,"hash":370531962,"fixed_point":false}|}
      );
      (* Captures recorded while the daemon had a choice of RE kernel
         may carry "kernel"; the field is ignored, whatever its value,
         so the reply is the one above. *)
      ( {|{"op":"re","problem":"mm:3","kernel":"reference"}|},
        {|{"steps":1,"labels":6,"white_configs":3,"black_configs":31,"hash":370531962,"fixed_point":false}|}
      );
      ( {|{"op":"re","problem":"mm:3","kernel":"bogus"}|},
        {|{"steps":1,"labels":6,"white_configs":3,"black_configs":31,"hash":370531962,"fixed_point":false}|}
      );
      ( {|{"op":"sequence","problem":"matching:2:0:1","steps":2}|},
        {|{"length":3,"hashes":[433798271,292612649,637669361],"lower_bound":true}|}
      );
      ( {|{"op":"solve","problem":"col:2:2","graph":"cycle:3"}|},
        {|{"outcome":"no_solution","nodes":11,"backtracks":10,"budget_exhausted":false}|}
      );
      (* Captures recorded while the daemon had a worker width carry
         "jobs"; the field is ignored, so the reply is the one above. *)
      ( {|{"op":"solve","problem":"col:2:2","graph":"cycle:3","jobs":2}|},
        {|{"outcome":"no_solution","nodes":11,"backtracks":10,"budget_exhausted":false}|}
      );
      ( {|{"op":"audit","problem":"col:2:2","graph":"cycle:3"}|},
        {|{"support_nodes":6,"girth":6,"certificate":"unsolvable-by-search","det_rounds":1,"diagnostics":0,"exit_code":0}|}
      );
    ]

(* ------------------------------------------------------------------ *)
(* The shared operation layer *)

module Ops = Slocal_serve.Ops

(* A k-step sequence runs each relaxation check once: k checks, not
   the 2k of building the verdict by a second [check] pass. *)
let test_sequence_checks_once () =
  with_clean_telemetry @@ fun () ->
  let checks = Telemetry.counter "sequence.checks" in
  List.iter
    (fun k ->
      let before = Telemetry.value checks in
      let r = Ops.sequence ~steps:k (Ops.parse_problem "mm:3") in
      check int_t (Printf.sprintf "%d checks for k=%d" k k) k
        (Telemetry.value checks - before);
      check int_t "one step record per check" k (List.length r.Ops.checks);
      check (Alcotest.option bool_t) "verdict" (Some true) r.Ops.lower_bound)
    [ 1; 2 ]

(* Bad specs and an alphabet beyond the label-set limit are failed
   operations with a message, in the library and over the protocol. *)
let test_failed_operations () =
  with_clean_telemetry @@ fun () ->
  let message f =
    match f () with
    | _ -> Alcotest.fail "operation did not fail"
    | exception e -> (
        match Ops.error_message e with
        | Some m -> m
        | None -> Alcotest.failf "not a reported failure: %s" (Printexc.to_string e))
  in
  check string_t "bad problem spec" {|unknown problem spec "nonsense:9"|}
    (message (fun () -> Ops.parse_problem "nonsense:9"));
  check string_t "bad graph spec" {|unknown graph spec "bogus:1"|}
    (message (fun () -> Ops.parse_graph "bogus:1"));
  check string_t "non-integer field" {|spec "mm:x": "x" is not an integer|}
    (message (fun () -> Ops.parse_problem "mm:x"));
  let big = message (fun () -> Ops.re ~steps:1 (Ops.parse_problem "col:2:3")) in
  check bool_t "names the label count" true (contains big "78 labels");
  check bool_t "names the limit" true
    (contains big (string_of_int Slocal_util.Bitset.max_universe));
  let st = Serve.create () in
  let r = ask st {|{"op":"re","problem":"col:2:3"}|} in
  check bool_t "daemon refuses" false (is_ok r);
  check (Alcotest.option string_t) "daemon reports the same message" (Some big)
    (str "error" r)

(* ------------------------------------------------------------------ *)
(* Request isolation: the sum invariant *)

let stats_check st =
  let r = ask st {|{"op":"stats"}|} in
  check bool_t "stats ok" true (is_ok r);
  match Option.bind (member "result" r) (boolean "check_sum") with
  | Some b -> b
  | None -> Alcotest.fail "stats response missing check_sum"

let test_request_isolation () =
  with_clean_telemetry @@ fun () ->
  let before = Telemetry.snapshot () in
  let st = Serve.create () in
  (* Three windows on one warm daemon: cold, warm, cold-again on a
     different problem — and one request with a stale "jobs" field. *)
  let r1 = ask st {|{"op":"re","problem":"mm:2"}|} in
  let r2 = ask st {|{"op":"re","problem":"mm:2"}|} in
  let r3 = ask st {|{"op":"re","problem":"arb:3:2"}|} in
  let r4 = ask st {|{"op":"sequence","problem":"matching:2:0:1","steps":2,"jobs":2}|} in
  List.iter (fun r -> check bool_t "request ok" true (is_ok r)) [ r1; r2; r3; r4 ];
  let deltas = List.map counters_of [ r1; r2; r3; r4 ] in
  (* Disjoint cache attribution. *)
  check bool_t "r2 hits only" true
    (assoc0 "re.cache_hits" (List.nth deltas 1) > 0
    && assoc0 "re.cache_misses" (List.nth deltas 1) = 0);
  check bool_t "r3 misses only" true
    (assoc0 "re.cache_misses" (List.nth deltas 2) > 0
    && assoc0 "re.cache_hits" (List.nth deltas 2) = 0);
  (* The per-request deltas sum exactly to the global registry delta:
     nothing ran outside a window, so the merged response counters
     equal the registry's movement, counter by counter. *)
  let summed = List.fold_left merge [] deltas in
  let after = Telemetry.snapshot () in
  List.iter
    (fun (n, v) ->
      check int_t
        (Printf.sprintf "summed delta of %s matches the registry" n)
        (assoc0 n after - assoc0 n before)
        v)
    summed;
  check int_t "four requests counted" 4 (assoc0 "request.count" summed);
  (* And the daemon's own stats op agrees. *)
  check bool_t "stats check_sum holds" true (stats_check st)

(* A traced daemon's major-cycle alarm ticks gc.majors whenever a cycle
   ends, also between request windows: the sum invariant must tolerate
   that movement without attribution. *)
let test_gc_majors_between_windows () =
  with_clean_telemetry @@ fun () ->
  Telemetry.set_sink (Telemetry.collector_sink ignore);
  let st = Serve.create () in
  let r1 = ask st {|{"op":"re","problem":"mm:2"}|} in
  let before = Telemetry.value (Telemetry.counter "gc.majors") in
  Gc.full_major ();
  check bool_t "an out-of-window major cycle was counted" true
    (Telemetry.value (Telemetry.counter "gc.majors") > before);
  let r2 = ask st {|{"op":"re","problem":"mm:3"}|} in
  List.iter (fun r -> check bool_t "request ok" true (is_ok r)) [ r1; r2 ];
  check bool_t "stats check_sum holds" true (stats_check st)

(* ------------------------------------------------------------------ *)
(* Capture, replay and the request ledger *)

let test_capture_replay_20 () =
  with_clean_telemetry @@ fun () ->
  with_tmp "slocal_record" @@ fun record ->
  let problems = [ "matching:3:0:1"; "matching:4:0:1"; "col:3:2"; "so:3" ] in
  let lines =
    List.init 20 (fun i ->
        Printf.sprintf {|{"op":"re","problem":"%s"}|}
          (List.nth problems (i mod 4)))
  in
  let cfg = { Serve.default_config with Serve.record = Some record } in
  let st = Serve.create ~config:cfg () in
  let responses = List.map (ask st) lines in
  List.iter (fun r -> check bool_t "request ok" true (is_ok r)) responses;
  (* The response's request record carries no body; only the file's
     records do. *)
  check bool_t "no body in the response" true
    (Option.bind (member "request" (List.hd responses)) (member "body") = None);
  check int_t "20 served" 20 (Serve.served st);
  let totals = Serve.request_totals st in
  (* Each of the 4 problems is requested 5 times: 4 cold misses, the
     16 repeats hit the warm cache. *)
  check bool_t "repeated problems hit the warm cache" true
    (assoc0 "re.cache_hits" totals > 0);
  check int_t "every window counted" 20 (assoc0 "request.count" totals);
  check bool_t "stats check_sum holds after 20 requests" true (stats_check st);
  (* One slocal.request/1 record per work request, in order, each
     with its outcome and the verbatim request body. *)
  let { Ledger.records; skipped } = Ledger.read_file record in
  check int_t "no skipped record lines" 0 skipped;
  check bool_t "every line is a slocal.request/1 record" true
    (List.for_all
       (String.starts_with ~prefix:{|{"schema":"slocal.request/1",|})
       (In_channel.with_open_bin record In_channel.input_lines));
  check int_t "20 records" 20 (List.length records);
  check
    (Alcotest.list string_t)
    "record ids in request order"
    (List.init 20 (fun i -> Printf.sprintf "r%d" (i + 1)))
    (List.map (fun (rr : Ledger.record) -> rr.Ledger.id) records);
  let bodies =
    List.map
      (fun (rr : Ledger.record) ->
        check string_t "recorded outcome" "ok" rr.Ledger.outcome;
        match rr.Ledger.body with
        | Some body -> body
        | None -> Alcotest.fail "record lost its body")
      records
  in
  check (Alcotest.list string_t) "bodies are the requests" lines
    (List.map Json.to_string bodies);
  (* Replay the bodies against a second daemon sharing the warm
     process: every request answers ok and the repeated problems are
     now pure cache hits. *)
  let st2 = Serve.create () in
  List.iter
    (fun body ->
      let r = ask st2 (Json.to_string body) in
      check bool_t "replayed request ok" true (is_ok r))
    bodies;
  let totals2 = Serve.request_totals st2 in
  check bool_t "replay hits the warm cache" true
    (assoc0 "re.cache_hits" totals2 > 0);
  check int_t "replay misses nothing" 0 (assoc0 "re.cache_misses" totals2);
  check bool_t "stats check_sum holds on the replay daemon" true
    (stats_check st2)

(* ------------------------------------------------------------------ *)
(* One ledger file for every writer *)

let append_line file line =
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc (line ^ "\n");
  close_out oc

(* CLI runs, daemon requests and the lines written before the two
   record types merged all read through [Ledger.read_file]; only the
   damaged line is skipped, and gc keeps the newest records whatever
   wrote them. *)
let test_mixed_schema_ledger () =
  with_tmp "slocal_mixed_ledger" @@ fun file ->
  let cli =
    {
      Ledger.empty with
      id = "deadbeef";
      op = "re";
      argv = [ "slocal"; "re"; "mm:3" ];
      started_at = 1000.;
      wall_ns = 1_000_000_000;
      outcome = "ok";
      problems = [ ("mm3", 42) ];
      counters = [ ("re.steps", 1) ];
    }
  in
  let rr id =
    {
      Ledger.empty with
      id;
      op = "re";
      problems = [ ("mm3", 42) ];
      wall_ns = 5_000;
      alloc_b = 1_024;
      cache_hits = 3;
      outcome = "ok";
    }
  in
  let append r =
    match Ledger.append ~path:file r with
    | Ok () -> ()
    | Error m -> Alcotest.failf "append: %s" m
  in
  append_line file
    {|{"schema":"slocal.run/1","id":"cafe0002","argv":["slocal","sequence","mm:3"],"started_at":1000.25,"finished_at":1001.75,"outcome":"ok","exit_code":0,"kernel":"fast","seed":null,"problems":{"mm3":42},"counters":{"re.steps":2},"gauges":{},"histograms":{},"artifacts":{}}|};
  append (rr "r1");
  append cli;
  append { (rr "r2") with Ledger.body = Some (Json.Obj [ ("op", Json.String "re") ]) };
  (* A record written while requests had a worker width and a choice
     of RE kernel: its "jobs" and "kernel" fields are ignored. *)
  append_line file
    {|{"schema":"slocal.request/1","id":"r0","op":"re","problems":{"mm3":42},"kernel":"fast","jobs":2,"wall_ns":5000,"alloc_b":1024,"cache_hits":3,"cache_misses":0,"outcome":"ok"}|};
  append_line file "{ damaged";
  let r = Ledger.read_file file in
  check (Alcotest.list string_t) "every well-formed line is a record"
    [ "cafe0002"; "r1"; "deadbeef"; "r2"; "r0" ]
    (List.map (fun (x : Ledger.record) -> x.Ledger.id) r.Ledger.records);
  check int_t "damaged line skipped" 1 r.Ledger.skipped;
  (match r.Ledger.records with
  | [ legacy; r1; c; _; r0 ] ->
      check string_t "legacy run has no op" "" legacy.Ledger.op;
      check int_t "legacy wall from finished_at - started_at" 1_500_000_000
        legacy.Ledger.wall_ns;
      check (Alcotest.list string_t) "legacy argv" [ "slocal"; "sequence"; "mm:3" ]
        legacy.Ledger.argv;
      check bool_t "daemon record reads back" true (r1 = rr "r1");
      check bool_t "CLI record reads back" true (c = cli);
      check bool_t "pre-change request record reads" true (r0 = rr "r0")
  | _ -> Alcotest.fail "expected five records");
  (match Ledger.gc ~path:file ~keep:3 with
  | Ok (kept, dropped) ->
      check int_t "kept" 3 kept;
      check int_t "dropped (2 oldest + damaged)" 3 dropped
  | Error m -> Alcotest.failf "gc: %s" m);
  let r = Ledger.read_file file in
  check (Alcotest.list string_t) "gc keeps the newest, daemon records included"
    [ "deadbeef"; "r2"; "r0" ]
    (List.map (fun (x : Ledger.record) -> x.Ledger.id) r.Ledger.records);
  check int_t "rewrite is clean" 0 r.Ledger.skipped

(* The committed fixture holds run records and a serve --record capture
   written by an earlier binary: every recorded body replays. *)
let test_fixture_replay () =
  with_clean_telemetry @@ fun () ->
  let { Ledger.records; skipped } =
    Ledger.read_file "fixtures/ledger_mixed.jsonl"
  in
  check int_t "four records" 4 (List.length records);
  check int_t "one damaged line" 1 skipped;
  let bodies = List.filter_map (fun (r : Ledger.record) -> r.Ledger.body) records in
  check int_t "two replayable bodies" 2 (List.length bodies);
  let st = Serve.create () in
  List.iter
    (fun body ->
      check bool_t "replayed request ok" true
        (is_ok (ask st (Json.to_string body))))
    bodies

(* ------------------------------------------------------------------ *)
(* The socket loop, end to end *)

let test_socket_roundtrip () =
  with_clean_telemetry @@ fun () ->
  let socket = Filename.temp_file "slocal_serve" ".sock" in
  Sys.remove socket;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists socket then Sys.remove socket)
  @@ fun () ->
  let st = Serve.create () in
  let server = Domain.spawn (fun () -> Serve.serve ~socket st) in
  let conn = Serve.connect ~wait_s:5.0 ~socket () in
  let send obj =
    match Serve.roundtrip conn obj with
    | Ok j -> j
    | Error m -> Alcotest.failf "roundtrip: %s" m
  in
  let req kvs = Json.Obj kvs in
  let r = send (req [ ("op", Json.String "re"); ("problem", Json.String "col:3:2") ]) in
  check bool_t "work request over the socket ok" true (is_ok r);
  check bool_t "response carries per-request counters" true
    (counters_of r <> []);
  let s = send (req [ ("op", Json.String "stats") ]) in
  check bool_t "stats over the socket ok" true (is_ok s);
  (* The accept path ticks the out-of-window connection counter; the
     sum invariant must hold regardless. *)
  (match Option.bind (member "result" s) (member "counters_since_start") with
  | Some (Json.Obj kvs) ->
      check bool_t "connection counted outside any window" true
        (match List.assoc_opt "serve.connections" kvs with
        | Some (Json.Int n) -> n >= 1
        | _ -> false)
  | _ -> Alcotest.fail "stats missing counters_since_start");
  check bool_t "check_sum true over the socket" true
    (Option.bind (member "result" s) (boolean "check_sum") = Some true);
  let bye = send (req [ ("op", Json.String "shutdown") ]) in
  check bool_t "shutdown acknowledged" true (is_ok bye);
  Serve.disconnect conn;
  Domain.join server;
  check bool_t "daemon stopped" true (Serve.stopped st);
  check bool_t "socket file removed" false (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "warm re round-trip" `Quick test_re_warm_cache;
          Alcotest.test_case "unknown op and bad json" `Quick
            test_unknown_op_and_bad_json;
          Alcotest.test_case "failed work op records an error" `Quick
            test_work_op_error_record;
          Alcotest.test_case "metrics exposition" `Quick test_metrics_op;
          Alcotest.test_case "result goldens per work op" `Quick
            test_result_goldens;
        ] );
      ( "ops",
        [
          Alcotest.test_case "sequence checks each step once" `Quick
            test_sequence_checks_once;
          Alcotest.test_case "failed operations report a message" `Quick
            test_failed_operations;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "disjoint deltas sum to the global delta" `Quick
            test_request_isolation;
          Alcotest.test_case "gc.majors between windows" `Quick
            test_gc_majors_between_windows;
        ] );
      ( "capture",
        [
          Alcotest.test_case "20-request capture, ledger and replay" `Quick
            test_capture_replay_20;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "mixed run + request schemas" `Quick
            test_mixed_schema_ledger;
          Alcotest.test_case "committed capture replays" `Quick
            test_fixture_replay;
        ] );
      ( "socket",
        [
          Alcotest.test_case "serve loop end to end" `Quick
            test_socket_roundtrip;
        ] );
    ]
