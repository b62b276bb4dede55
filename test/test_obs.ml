(* Tests for the telemetry layer: the hand-rolled JSON codec, the
   metric registry, span nesting through a collector sink, the null
   sink's no-op guarantees, and the JSONL trace round-trip. *)

module Json = Slocal_obs.Json
module Telemetry = Slocal_obs.Telemetry

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* Every test must leave the global telemetry state clean: sink
   uninstalled and metrics zeroed. *)
let with_clean_telemetry f =
  Telemetry.reset_metrics ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_sink Telemetry.null_sink;
      Telemetry.reset_metrics ())
    f

(* ------------------------------------------------------------------ *)
(* Json *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_print () =
  check string_t "null" "null" (Json.to_string Json.Null);
  check string_t "true" "true" (Json.to_string (Json.Bool true));
  check string_t "int" "-42" (Json.to_string (Json.Int (-42)));
  check string_t "string escape" "\"a\\\"b\\\\c\\n\""
    (Json.to_string (Json.String "a\"b\\c\n"));
  check string_t "list" "[1,2]"
    (Json.to_string (Json.List [ Json.Int 1; Json.Int 2 ]));
  check string_t "obj" "{\"k\":\"v\"}"
    (Json.to_string (Json.Obj [ ("k", Json.String "v") ]));
  check string_t "nan is null" "null" (Json.to_string (Json.Float Float.nan))

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int 0;
      Json.Int max_int;
      Json.Int min_int;
      Json.String "";
      Json.String "tab\there \"and\" back\\slash\ncontrol\x01done";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.List [ Json.Obj [ ("b", Json.Null) ] ]);
          ("s", Json.String "x");
        ];
    ]
  in
  List.iteri
    (fun i v -> check bool_t (Printf.sprintf "sample %d" i) true (roundtrip v))
    samples;
  (* Floats round-trip through %.17g exactly. *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
          check (Alcotest.float 0.) "float exact" f f'
      | Ok (Json.Int i) -> check (Alcotest.float 0.) "float as int" f (float_of_int i)
      | _ -> Alcotest.fail "float did not round-trip")
    [ 1.5; -0.25; 1e300; 3.141592653589793 ]

let test_json_parse () =
  (match Json.of_string "  { \"a\" : [ 1 , true , \"x\\u0041\" ] } " with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Bool true; Json.String "xA" ]) ])
    -> ()
  | Ok _ -> Alcotest.fail "parsed to the wrong value"
  | Error e -> Alcotest.fail e);
  (* Surrogate pair → astral code point, UTF-8 encoded. *)
  (match Json.of_string "\"\\uD83D\\uDE00\"" with
  | Ok (Json.String s) -> check string_t "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair failed");
  let is_error s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> check bool_t (Printf.sprintf "reject %S" s) true (is_error s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_accessors () =
  let v =
    Json.Obj [ ("n", Json.Int 7); ("f", Json.Float 2.5); ("s", Json.String "x") ]
  in
  check (Alcotest.option int_t) "member+as_int" (Some 7)
    (Option.bind (Json.member "n" v) Json.as_int);
  check (Alcotest.option (Alcotest.float 0.)) "as_float accepts Int" (Some 7.)
    (Option.bind (Json.member "n" v) Json.as_float);
  check (Alcotest.option string_t) "as_string" (Some "x")
    (Option.bind (Json.member "s" v) Json.as_string);
  check bool_t "missing member" true (Json.member "zz" v = None);
  check bool_t "as_int rejects float" true
    (Option.bind (Json.member "f" v) Json.as_int = None)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counters () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.counter" in
  let c' = Telemetry.counter "test.counter" in
  check int_t "fresh counter is 0" 0 (Telemetry.value c);
  Telemetry.incr c;
  Telemetry.add c' 10;
  check int_t "interned: same metric" 11 (Telemetry.value c);
  check bool_t "snapshot sorted" true
    (let s = List.map fst (Telemetry.snapshot ()) in
     s = List.sort compare s);
  check bool_t "nonzero_snapshot has the counter" true
    (List.mem ("test.counter", 11) (Telemetry.nonzero_snapshot ()))

let test_delta () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.d.counter" in
  let z = Telemetry.counter "test.d.zero" in
  Telemetry.add c 4;
  let before = Telemetry.snapshot () in
  Telemetry.add c 6;
  let d = Telemetry.delta ~before ~after:(Telemetry.snapshot ()) in
  check (Alcotest.option int_t) "counter delta subtracts" (Some 6)
    (List.assoc_opt "test.d.counter" d);
  check bool_t "zero entries dropped" true
    (List.assoc_opt "test.d.zero" d = None);
  Telemetry.reset_metrics ();
  check int_t "reset zeroes counters" 0 (Telemetry.value c);
  ignore z

(* ------------------------------------------------------------------ *)
(* Histograms *)

module H = Telemetry.Histogram

let hist_of_list vs =
  let h = H.create () in
  List.iter (H.record h) vs;
  h

let test_histogram_buckets () =
  check int_t "bucket of min_int" 0 (H.bucket_of_value min_int);
  check int_t "bucket of -1" 0 (H.bucket_of_value (-1));
  check int_t "bucket of 0" 0 (H.bucket_of_value 0);
  check int_t "bucket of 1" 1 (H.bucket_of_value 1);
  check int_t "bucket of 2" 2 (H.bucket_of_value 2);
  check int_t "bucket of 3" 2 (H.bucket_of_value 3);
  check int_t "bucket of 4" 3 (H.bucket_of_value 4);
  (* max_int has [Sys.int_size - 1] significant bits (62 on 64-bit
     platforms), capped at the last bucket. *)
  check int_t "bucket of max_int"
    (min 63 (Sys.int_size - 1))
    (H.bucket_of_value max_int);
  (* Power-of-two boundaries: 2^i opens bucket i+1; 2^i - 1 closes
     bucket i. *)
  for i = 1 to 61 do
    let v = 1 lsl i in
    check int_t (Printf.sprintf "bucket of 2^%d" i) (i + 1) (H.bucket_of_value v);
    check int_t (Printf.sprintf "bucket of 2^%d - 1" i) i (H.bucket_of_value (v - 1))
  done;
  (* Every value lands inside its bucket's inclusive bounds. *)
  List.iter
    (fun v ->
      let lo, hi = H.bucket_bounds (H.bucket_of_value v) in
      check bool_t (Printf.sprintf "%d within bounds" v) true (lo <= v && v <= hi))
    [ min_int; -7; 0; 1; 2; 3; 1000; 1 lsl 40; max_int ]

let test_histogram_record () =
  let h = hist_of_list [ 5; 1; 1000; 0; 7 ] in
  check int_t "count" 5 (H.count h);
  check int_t "sum" 1013 (H.sum h);
  check int_t "min" 0 (H.min_value h);
  check int_t "max" 1000 (H.max_value h);
  check (Alcotest.float 1e-9) "mean exact" 202.6 (H.mean h);
  check bool_t "not empty" false (H.is_empty h);
  (* Quantiles: exact at the extremes, monotone in between, always
     within the observed range. *)
  check int_t "q=0 is min" 0 (H.quantile h 0.);
  check int_t "q=1 is max" 1000 (H.quantile h 1.);
  let qs = [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ] in
  let vals = List.map (H.quantile h) qs in
  check bool_t "quantiles monotone" true (vals = List.sort compare vals);
  List.iter
    (fun v ->
      check bool_t "quantile clamped" true
        (H.min_value h <= v && v <= H.max_value h))
    vals;
  (* Copy is independent; reset empties. *)
  let c = H.copy h in
  H.record h 9;
  check int_t "copy unaffected" 5 (H.count c);
  H.reset h;
  check bool_t "reset empties" true (H.is_empty h);
  check int_t "empty quantile is 0" 0 (H.quantile h 0.5)

let test_histogram_merge () =
  let a = hist_of_list [ 1; 2; 3 ] and b = hist_of_list [ 100; -5 ] in
  let m = H.merge a b in
  check int_t "merge count" 5 (H.count m);
  check int_t "merge sum" 101 (H.sum m);
  check int_t "merge min" (-5) (H.min_value m);
  check int_t "merge max" 100 (H.max_value m);
  check int_t "arguments unchanged" 3 (H.count a);
  check bool_t "commutative" true (H.equal m (H.merge b a));
  check bool_t "empty is identity" true (H.equal a (H.merge a (H.create ())));
  (* Merge equals recording the concatenation. *)
  check bool_t "merge = concat" true
    (H.equal m (hist_of_list [ 1; 2; 3; 100; -5 ]))

let test_histogram_json () =
  List.iter
    (fun vs ->
      let h = hist_of_list vs in
      match Telemetry.histogram_of_json (Telemetry.histogram_to_json h) with
      | Ok h' -> check bool_t "histogram json round-trip" true (H.equal h h')
      | Error e -> Alcotest.fail e)
    [ []; [ 0 ]; [ -3; 17; 17; 4096; max_int ] ]

let test_histogram_registry () =
  with_clean_telemetry @@ fun () ->
  let h = Telemetry.histogram "test.hist" in
  let h' = Telemetry.histogram "test.hist" in
  H.record h 12;
  check int_t "interned: same histogram" 1 (H.count h');
  check bool_t "snapshot has it" true
    (List.mem_assoc "test.hist" (Telemetry.histogram_snapshot ()));
  (* emit_histograms sends copies: later recording must not alter the
     emitted snapshot. *)
  let got = ref [] in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Histograms { values; _ } -> got := values :: !got
      | _ -> ()));
  Telemetry.emit_histograms ();
  Telemetry.set_sink Telemetry.null_sink;
  H.record h 99;
  (match !got with
  | [ values ] ->
      let e = List.assoc "test.hist" values in
      check int_t "emitted copy frozen" 1 (H.count e)
  | _ -> Alcotest.fail "expected exactly one histograms event");
  Telemetry.reset_metrics ();
  check bool_t "reset_metrics clears histograms" true (H.is_empty h)

let test_span_histogram () =
  with_clean_telemetry @@ fun () ->
  (* Null sink: spans record nothing. *)
  ignore (Telemetry.span "quiet" (fun () -> 1));
  check bool_t "no histogram under null sink" true
    (Telemetry.histogram_snapshot () = []);
  (* Collector sink: duration histogram and alloc delta. *)
  let alloc = ref (-1) in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Span_close { alloc_b; _ } -> alloc := alloc_b
      | _ -> ()));
  ignore (Telemetry.span "work" (fun () -> Array.make 4096 0));
  Telemetry.set_sink Telemetry.null_sink;
  check bool_t "span duration recorded" true
    (H.count (Telemetry.histogram "span.work") = 1);
  check bool_t "alloc_b non-negative" true (!alloc >= 0)

let test_span_gc_work () =
  with_clean_telemetry @@ fun () ->
  let got = ref None in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Span_close { name = "gc_work"; minor_n; major_n; _ } ->
          got := Some (minor_n, major_n)
      | _ -> ()));
  Telemetry.span "gc_work" (fun () ->
      Gc.minor ();
      Gc.full_major ());
  Telemetry.set_sink Telemetry.null_sink;
  match !got with
  | None -> Alcotest.fail "no span_close for gc_work"
  | Some (minor_n, major_n) ->
      check bool_t "minor collections attributed to the span" true
        (minor_n >= 1);
      check bool_t "major collections attributed to the span" true
        (major_n >= 1)

let test_major_cycle_monitor () =
  with_clean_telemetry @@ fun () ->
  let majors () =
    Option.value ~default:0
      (List.assoc_opt "gc.majors" (Telemetry.snapshot ()))
  in
  (* No sink: the alarm is not installed, major cycles go uncounted. *)
  Gc.full_major ();
  check int_t "no monitor without a sink" 0 (majors ());
  Telemetry.set_sink (Telemetry.collector_sink (fun _ -> ()));
  Gc.full_major ();
  Gc.full_major ();
  let with_sink = majors () in
  check bool_t "alarm counts major cycles under a sink" true (with_sink >= 2);
  check bool_t "inter-cycle latency recorded" true
    (H.count (Telemetry.histogram "gc.major_cycle_ns") >= 1);
  Telemetry.set_sink Telemetry.null_sink;
  Gc.full_major ();
  check int_t "alarm removed with the null sink" with_sink (majors ())

(* ------------------------------------------------------------------ *)
(* Null sink *)

let test_null_sink () =
  with_clean_telemetry @@ fun () ->
  check bool_t "disabled by default" false (Telemetry.enabled ());
  check int_t "span is the plain call" 41 (Telemetry.span "x" (fun () -> 41));
  Alcotest.check_raises "span re-raises" Exit (fun () ->
      Telemetry.span "x" (fun () -> raise Exit));
  (* No-ops, must not raise. *)
  Telemetry.emit_counters ();
  Telemetry.message "nobody listens"

(* ------------------------------------------------------------------ *)
(* Span nesting via the collector sink *)

let test_span_nesting () =
  with_clean_telemetry @@ fun () ->
  let events = ref [] in
  Telemetry.set_sink (Telemetry.collector_sink (fun e -> events := e :: !events));
  check bool_t "enabled with collector" true (Telemetry.enabled ());
  let result =
    Telemetry.span "outer" (fun () ->
        let a = Telemetry.span "inner" (fun () -> 7) in
        let b = Telemetry.span "inner2" (fun () -> 1) in
        a + b)
  in
  check int_t "spans pass values through" 8 result;
  match List.rev !events with
  | [
   Telemetry.Trace_start _;
   Telemetry.Span_open { id = o; parent = None; name = "outer"; _ };
   Telemetry.Span_open { id = i1; parent = Some p1; name = "inner"; _ };
   Telemetry.Span_close { id = ci1; name = "inner"; dur_ns = d1; _ };
   Telemetry.Span_open { id = i2; parent = Some p2; name = "inner2"; _ };
   Telemetry.Span_close { id = ci2; name = "inner2"; _ };
   Telemetry.Span_close { id = co; name = "outer"; dur_ns = d_o; _ };
  ] ->
      check int_t "inner parent is outer" o p1;
      check int_t "inner2 parent is outer" o p2;
      check int_t "inner close matches open" i1 ci1;
      check int_t "inner2 close matches open" i2 ci2;
      check int_t "outer close matches open" o co;
      check bool_t "distinct ids" true (o <> i1 && o <> i2 && i1 <> i2);
      check bool_t "durations non-negative" true
        (Int64.compare d1 0L >= 0 && Int64.compare d_o 0L >= 0)
  | evs ->
      Alcotest.fail
        (Printf.sprintf "unexpected event sequence (%d events)" (List.length evs))

let test_span_exception_close () =
  with_clean_telemetry @@ fun () ->
  let closes = ref 0 in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Span_close _ -> incr closes
      | _ -> ()));
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      Telemetry.span "a" (fun () ->
          Telemetry.span "b" (fun () -> raise Exit)));
  check int_t "both spans closed on exception" 2 !closes;
  (* The span stack unwound: a fresh span is again a root. *)
  let root_parent = ref (Some (-1)) in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Span_open { parent; _ } -> root_parent := parent
      | _ -> ()));
  Telemetry.span "fresh" (fun () -> ());
  check bool_t "stack unwound after exception" true (!root_parent = None)

(* ------------------------------------------------------------------ *)
(* JSONL trace round-trip *)

let test_jsonl_roundtrip () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  Telemetry.set_sink (Telemetry.jsonl_sink oc);
  let c = Telemetry.counter "test.jsonl.counter" in
  Telemetry.span "outer" (fun () ->
      Telemetry.add c 3;
      Telemetry.span "inner" (fun () -> Telemetry.message "hello \"quoted\""));
  Telemetry.emit_counters ();
  Telemetry.set_sink Telemetry.null_sink;
  close_out oc;
  let lines =
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  check int_t "event count" 7 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok v -> v
        | Error e -> Alcotest.fail (Printf.sprintf "invalid JSON line %S: %s" line e))
      lines
  in
  let kind v =
    match Option.bind (Json.member "kind" v) Json.as_string with
    | Some k -> k
    | None -> Alcotest.fail "line without kind"
  in
  check string_t "first line is trace_start" "trace_start" (kind (List.hd parsed));
  check (Alcotest.option string_t) "trace_start carries the schema"
    (Some Telemetry.trace_schema_version)
    (Option.bind (Json.member "schema" (List.hd parsed)) Json.as_string);
  (* Timestamps are monotone. *)
  let ts =
    List.filter_map (fun v -> Option.bind (Json.member "t_ns" v) Json.as_int) parsed
  in
  check int_t "every line has t_ns" (List.length parsed) (List.length ts);
  check bool_t "t_ns monotone" true (ts = List.sort compare ts);
  (* Spans are balanced and the counters event carries the value. *)
  let count k = List.length (List.filter (fun v -> kind v = k) parsed) in
  check int_t "two span_open" 2 (count "span_open");
  check int_t "two span_close" 2 (count "span_close");
  check int_t "one message" 1 (count "message");
  let counters_line = List.find (fun v -> kind v = "counters") parsed in
  check (Alcotest.option int_t) "counter value serialized" (Some 3)
    (Option.bind
       (Option.bind (Json.member "values" counters_line)
          (Json.member "test.jsonl.counter"))
       Json.as_int)

(* ------------------------------------------------------------------ *)
(* Sink flush idempotence *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lines_of path =
  String.split_on_char '\n' (read_all path) |> List.filter (fun l -> l <> "")

let test_flush_idempotent () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_flush" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  Telemetry.set_sink (Telemetry.jsonl_sink oc);
  let c = Telemetry.counter "test.flush.counter" in
  Telemetry.add c 2;
  Telemetry.emit_counters ();
  Telemetry.flush_sink ();
  let size () = (Unix.stat file).Unix.st_size in
  let s1 = size () in
  Telemetry.flush_sink ();
  Telemetry.flush_sink ();
  check int_t "double flush adds nothing" s1 (size ());
  (* Closing the channel behind the sink: emit and flush must both
     become silent no-ops, and the trailing record stays intact. *)
  close_out oc;
  Telemetry.flush_sink ();
  Telemetry.message "after close";
  Telemetry.emit_counters ();
  Telemetry.flush_sink ();
  Telemetry.set_sink Telemetry.null_sink;
  Telemetry.flush_sink ();
  check int_t "closed sink wrote nothing" s1 (size ());
  let parsed =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok v -> v
        | Error e ->
            Alcotest.fail (Printf.sprintf "damaged line %S: %s" line e))
      (lines_of file)
  in
  let last = List.nth parsed (List.length parsed - 1) in
  check (Alcotest.option string_t) "trailing record intact" (Some "counters")
    (Option.bind (Json.member "kind" last) Json.as_string)

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition *)

module Openmetrics = Slocal_obs.Openmetrics

let test_openmetrics_names () =
  check string_t "dots become underscores" "slocal_re_cache_hits"
    (Openmetrics.metric_name "re.cache_hits");
  check string_t "non-identifier chars collapse" "slocal_a_b_c"
    (Openmetrics.metric_name "a.b-c")

let sample_value line =
  match String.rindex_opt line ' ' with
  | Some i -> int_of_string (String.sub line (i + 1) (String.length line - i - 1))
  | None -> Alcotest.fail ("exposition line without a value: " ^ line)

let test_openmetrics_render () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.om.count" in
  Telemetry.add c 3;
  let h = Telemetry.histogram "test.om.hist" in
  List.iter (H.record h) [ 1; 2; 3; 1000 ];
  let out = Openmetrics.render () in
  check bool_t "document ends with # EOF" true
    (String.ends_with ~suffix:"# EOF\n" out);
  let lines = String.split_on_char '\n' out in
  let has l = List.mem l lines in
  check bool_t "counter HELP line" true
    (List.exists
       (String.starts_with ~prefix:"# HELP slocal_test_om_count_total ")
       lines);
  check bool_t "counter TYPE line" true
    (has "# TYPE slocal_test_om_count_total counter");
  check bool_t "counter sample" true (has "slocal_test_om_count_total 3");
  check bool_t "histogram TYPE line" true
    (has "# TYPE slocal_test_om_hist histogram");
  let buckets =
    List.filter
      (String.starts_with ~prefix:"slocal_test_om_hist_bucket{le=")
      lines
  in
  check bool_t "at least two bucket series" true (List.length buckets >= 2);
  let vals = List.map sample_value buckets in
  check bool_t "cumulative buckets monotone" true
    (vals = List.sort compare vals);
  (match List.rev buckets with
  | last :: _ ->
      check bool_t "last bucket is +Inf" true
        (String.starts_with ~prefix:"slocal_test_om_hist_bucket{le=\"+Inf\"}"
           last);
      check int_t "+Inf bucket equals observation count" 4 (sample_value last)
  | [] -> Alcotest.fail "no bucket series");
  let sample name =
    match List.find_opt (String.starts_with ~prefix:(name ^ " ")) lines with
    | Some l -> sample_value l
    | None -> Alcotest.fail ("missing sample " ^ name)
  in
  check int_t "_count consistent" 4 (sample "slocal_test_om_hist_count");
  check int_t "_sum consistent" 1006 (sample "slocal_test_om_hist_sum")

let test_openmetrics_write_file () =
  with_clean_telemetry @@ fun () ->
  ignore (Telemetry.counter "test.om.file");
  let file = Filename.temp_file "slocal_om" ".prom" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Openmetrics.write_file file;
  let text = read_all file in
  check bool_t "published snapshot complete" true
    (String.ends_with ~suffix:"# EOF\n" text);
  check bool_t "published snapshot non-trivial" true
    (String.length text > String.length "# EOF\n")

(* ------------------------------------------------------------------ *)
(* Run ledger *)

module Ledger = Slocal_obs.Ledger

let sample_record ?(id = "cafe0001") ?(counters = [ ("c", 1) ]) () =
  {
    Ledger.empty with
    id;
    op = "re";
    argv = [ "slocal"; "re"; "x.slp" ];
    started_at = 1000.25;
    wall_ns = 3_500_000_000;
    outcome = "ok";
    exit_code = 0;
    seed = Some 42;
    problems = [ ("mm3", 123456789) ];
    cache_hits = 1;
    counters;
    histograms =
      [
        ( "h",
          {
            Ledger.hs_count = 4;
            hs_sum = 10;
            hs_p50 = 2;
            hs_p90 = 3;
            hs_p99 = 3;
            hs_max = 4;
          } );
      ];
    artifacts = [ ("trace", "/tmp/t.jsonl") ];
    alloc_b = 4096;
    majors = 2;
    top_heap_words = 65536;
  }

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

let with_temp_ledger f =
  let path = Filename.temp_file "slocal_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_ledger_roundtrip () =
  let r = sample_record () in
  (match Ledger.of_json (Ledger.to_json r) with
  | Ok r' -> check bool_t "record json round-trip" true (r = r')
  | Error e -> Alcotest.fail e);
  check (Alcotest.float 1e-9) "wall_seconds" 3.5 (Ledger.wall_seconds r);
  (match Ledger.of_json (Json.Obj [ ("schema", Json.String "wrong/9") ]) with
  | Ok _ -> Alcotest.fail "unknown schema accepted"
  | Error _ -> ())

let test_ledger_append_read () =
  with_temp_ledger @@ fun path ->
  List.iter
    (fun id ->
      match Ledger.append ~path (sample_record ~id ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ "aa01"; "ab02"; "ab03" ];
  let r = Ledger.read_file path in
  check int_t "three records" 3 (List.length r.Ledger.records);
  check int_t "nothing skipped" 0 r.Ledger.skipped;
  check (Alcotest.list string_t) "order preserved" [ "aa01"; "ab02"; "ab03" ]
    (List.map (fun (x : Ledger.record) -> x.Ledger.id) r.Ledger.records);
  (* A run killed mid-append leaves a truncated final line: one record
     lost, the ledger still reads. *)
  append_raw path "{\"schema\":\"slocal.run/1\",\"id\":\"dead";
  let r = Ledger.read_file path in
  check int_t "records survive truncation" 3 (List.length r.Ledger.records);
  check int_t "truncated line counted" 1 r.Ledger.skipped;
  (* Selection: 1-based index, unique id prefix, ambiguity rejected. *)
  let ok = function
    | Ok (x : Ledger.record) -> x.Ledger.id
    | Error e -> Alcotest.fail e
  in
  check string_t "index lookup" "ab02" (ok (Ledger.find r "2"));
  check string_t "prefix lookup" "aa01" (ok (Ledger.find r "aa"));
  check bool_t "ambiguous prefix rejected" true
    (Result.is_error (Ledger.find r "ab"));
  check bool_t "unknown key rejected" true
    (Result.is_error (Ledger.find r "zz"));
  check bool_t "index 0 rejected" true (Result.is_error (Ledger.find r "0"));
  check (Alcotest.result string_t string_t) "index beyond max_int rejected"
    (Error "run index 99999999999999999999 out of range (1..3)")
    (Result.map (fun (x : Ledger.record) -> x.Ledger.id)
       (Ledger.find r "99999999999999999999"))

let test_ledger_diff () =
  let a = sample_record ~counters:[ ("same", 3); ("x", 1); ("y", 5) ] () in
  let b = sample_record ~counters:[ ("same", 3); ("y", 7); ("z", 2) ] () in
  check
    (Alcotest.list (Alcotest.triple string_t int_t int_t))
    "counter union, equal dropped"
    [ ("x", 1, 0); ("y", 5, 7); ("z", 0, 2) ]
    (Ledger.diff a b)

let test_ledger_gc () =
  with_temp_ledger @@ fun path ->
  List.iter
    (fun i ->
      match Ledger.append ~path (sample_record ~id:(Printf.sprintf "id%02d" i) ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ 1; 2; 3; 4; 5 ];
  append_raw path "not json\n";
  (match Ledger.gc ~path ~keep:2 with
  | Ok (kept, dropped) ->
      check int_t "kept" 2 kept;
      check int_t "dropped (incl damaged)" 4 dropped
  | Error e -> Alcotest.fail e);
  let r = Ledger.read_file path in
  check (Alcotest.list string_t) "newest records survive" [ "id04"; "id05" ]
    (List.map (fun (x : Ledger.record) -> x.Ledger.id) r.Ledger.records);
  check int_t "rewrite is clean" 0 r.Ledger.skipped;
  (* A negative keep is refused and leaves the file alone. *)
  check bool_t "negative keep refused" true
    (Result.is_error (Ledger.gc ~path ~keep:(-1)));
  check int_t "file untouched" 2 (List.length (Ledger.read_file path).Ledger.records)

let test_ledger_run_context () =
  with_clean_telemetry @@ fun () ->
  with_temp_ledger @@ fun path ->
  Fun.protect ~finally:(fun () -> Unix.putenv "SLOCAL_LEDGER" "off")
  @@ fun () ->
  Unix.putenv "SLOCAL_LEDGER" path;
  check (Alcotest.option string_t) "env selects the ledger" (Some path)
    (Ledger.default_path ());
  Unix.putenv "SLOCAL_LEDGER" "none";
  check bool_t "\"none\" disables" true (Ledger.default_path () = None);
  Unix.putenv "SLOCAL_LEDGER" path;
  Ledger.begin_run ~op:"test" ~argv:[ "slocal"; "test" ];
  Ledger.note_seed 7;
  Ledger.note_problem ~name:"mm3" ~hash:99;
  Ledger.note_problem ~name:"mm3" ~hash:99;
  Ledger.note_artifact ~kind:"trace" "/tmp/x.jsonl";
  Telemetry.add (Telemetry.counter "test.ledger.counter") 5;
  Ledger.finish_run ~outcome:"ok";
  Ledger.finish_run ~outcome:"error";
  let r = Ledger.read_file path in
  (match r.Ledger.records with
  | [ rec_ ] ->
      check (Alcotest.list string_t) "argv" [ "slocal"; "test" ]
        rec_.Ledger.argv;
      check string_t "finish_run is idempotent" "ok" rec_.Ledger.outcome;
      check string_t "op noted" "test" rec_.Ledger.op;
      check (Alcotest.option int_t) "seed noted" (Some 7) rec_.Ledger.seed;
      check
        (Alcotest.list (Alcotest.pair string_t int_t))
        "problems deduplicated" [ ("mm3", 99) ] rec_.Ledger.problems;
      check (Alcotest.option string_t) "artifact noted" (Some "/tmp/x.jsonl")
        (List.assoc_opt "trace" rec_.Ledger.artifacts);
      check (Alcotest.option int_t) "counters snapshotted" (Some 5)
        (List.assoc_opt "test.ledger.counter" rec_.Ledger.counters);
      check bool_t "wall time non-negative" true (rec_.Ledger.wall_ns >= 0)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length rs)))

(* ------------------------------------------------------------------ *)
(* Live progress *)

module Progress = Slocal_obs.Progress

let test_progress_modes () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_progress" ".txt" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () ->
      Progress.set_mode Progress.Off;
      Progress.set_output stderr;
      Progress.set_interval_ns 500_000_000L;
      Progress.reset ();
      close_out_noerr oc;
      Sys.remove file)
  @@ fun () ->
  Progress.set_mode Progress.Off;
  Progress.reset ();
  check bool_t "Off is inactive" false (Progress.is_active ());
  Progress.start ~total:2 "quiet";
  Progress.tick ~step:1 ();
  Progress.finish ();
  check int_t "Off emits nothing" 0 (Progress.heartbeat_count ());
  Progress.set_mode Progress.Forced;
  Progress.set_output oc;
  Progress.set_interval_ns 0L;
  check bool_t "Forced is active" true (Progress.is_active ());
  Progress.start ~total:3 "phase";
  Progress.tick ~step:1 ~info:"labels=6" ();
  Progress.tick ~step:2 ();
  Progress.tick ~step:3 ();
  Progress.finish ();
  Progress.tick ~step:4 ();
  (* after finish: no-op *)
  Progress.solver_tick ~nodes:1000;
  Progress.solver_tick ~nodes:5000;
  flush oc;
  let lines = lines_of file in
  check bool_t "heartbeats emitted" true (List.length lines >= 4);
  check bool_t "every line carries the prefix" true
    (List.for_all (String.starts_with ~prefix:"[progress] ") lines);
  check bool_t "info suffix present" true
    (List.exists
       (fun l ->
         String.length l >= 8
         && String.ends_with ~suffix:"labels=6" l)
       lines);
  check int_t "heartbeat counter matches lines" (List.length lines)
    (Progress.heartbeat_count ())

(* ------------------------------------------------------------------ *)
(* Domains: the pool, and worker stores absorbed at the join *)

module Trace = Slocal_obs.Trace
module Pool = Slocal_obs.Pool

let test_pool_absorb () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.absorb.counter" in
  let hist () = Telemetry.histogram "test.absorb.hist" in
  let caller = Domain.self () in
  let off_caller = ref 0 and domains = ref [] in
  Telemetry.set_sink
    (Telemetry.collector_sink (fun ev ->
         if Domain.self () <> caller then Stdlib.incr off_caller;
         domains := Telemetry.event_domain ev :: !domains));
  Telemetry.add c 5;
  H.record (hist ()) 100;
  (* Tasks 0-2 wait for each other, so each of the three domains runs
     at least one task whatever the schedule. *)
  let arrived = Atomic.make 0 in
  ignore
    (Pool.run ~jobs:3 12 (fun i ->
         Telemetry.span "task" @@ fun () ->
         if i < 3 then begin
           Atomic.incr arrived;
           while Atomic.get arrived < 3 do
             Domain.cpu_relax ()
           done
         end;
         Telemetry.add c i;
         H.record (hist ()) i));
  Telemetry.set_sink Telemetry.null_sink;
  check int_t "counters add" (5 + 66) (Telemetry.value c);
  let h = List.assoc "test.absorb.hist" (Telemetry.histogram_snapshot ()) in
  check int_t "histograms merge" 13 (H.count h);
  check int_t "histogram bounds survive the merge" 100 (H.max_value h);
  check int_t "histogram min survives the merge" 0 (H.min_value h);
  check int_t "collector callback never ran off the caller's domain" 0
    !off_caller;
  check int_t "events from all three domains reach the collector" 3
    (List.length (List.sort_uniq compare !domains));
  Telemetry.reset_metrics ();
  check int_t "reset clears absorbed counts" 0 (Telemetry.value c);
  check bool_t "reset clears absorbed histograms" true
    (Telemetry.histogram_snapshot () = [])

let test_decide_batch_counters () =
  with_clean_telemetry @@ fun () ->
  let module G = Slocal_graph in
  let support =
    G.Bipartite.make (G.Graph_gen.cycle 6)
      (Array.init 6 (fun v ->
           if v mod 2 = 0 then G.Bipartite.White else G.Bipartite.Black))
  in
  let counters jobs =
    Telemetry.reset_metrics ();
    ignore
      (Supported_local.Zero_round.decide_batch ~jobs support
         (Supported_local.Zero_round.two_label_problems ()));
    List.filter
      (fun (nm, _) -> not (String.starts_with ~prefix:"par." nm))
      (Telemetry.nonzero_snapshot ())
  in
  let seq = counters 1 in
  check bool_t "the batch records counters" true
    (List.mem_assoc "solver.nodes" seq);
  check
    (Alcotest.list (Alcotest.pair string_t int_t))
    "metrics outside par.* equal at jobs 1 and 2" seq (counters 2)

let test_pool_parity () =
  with_clean_telemetry @@ fun () ->
  let f i = (i * i) + 1 in
  let seq = Pool.run ~jobs:1 20 f in
  List.iter
    (fun jobs ->
      check bool_t
        (Printf.sprintf "jobs=%d byte-identical" jobs)
        true
        (Pool.run ~jobs 20 f = seq))
    [ 2; 3; 4 ];
  check
    (Alcotest.list string_t)
    "map preserves order"
    [ "1"; "2"; "3"; "4"; "5" ]
    (Pool.map ~jobs:3 string_of_int [ 1; 2; 3; 4; 5 ]);
  check bool_t "zero tasks" true (Pool.run ~jobs:4 0 f = [||]);
  Alcotest.check_raises "negative task count"
    (Invalid_argument "Pool.run: negative task count") (fun () ->
      ignore (Pool.run ~jobs:2 (-1) f))

let test_pool_counters () =
  with_clean_telemetry @@ fun () ->
  ignore (Pool.run ~jobs:3 12 (fun i -> i));
  let v name =
    Option.value ~default:0 (List.assoc_opt name (Telemetry.snapshot ()))
  in
  check int_t "par.tasks_submitted" 12 (v "par.tasks_submitted");
  check int_t "par.tasks_completed" 12 (v "par.tasks_completed");
  check int_t "par.merges counts joined workers" 2 (v "par.merges");
  check bool_t "par.tasks_stolen bounded by completed" true
    (v "par.tasks_stolen" <= 12)

let test_pool_exception () =
  with_clean_telemetry @@ fun () ->
  Alcotest.check_raises "first task exception re-raised after joins" Exit
    (fun () -> ignore (Pool.run ~jobs:2 8 (fun i -> if i = 3 then raise Exit)))

let test_pool_width_exceeds_tasks () =
  with_clean_telemetry @@ fun () ->
  (* More workers than tasks: the surplus workers find nothing to
     claim and still join cleanly; accounting is unchanged. *)
  check bool_t "results correct" true
    (Pool.run ~jobs:8 3 (fun i -> i * 10) = [| 0; 10; 20 |]);
  let v name =
    Option.value ~default:0 (List.assoc_opt name (Telemetry.snapshot ()))
  in
  check int_t "submitted" 3 (v "par.tasks_submitted");
  check int_t "completed" 3 (v "par.tasks_completed");
  (* The pool clamps the width to the task count, so only
     min(jobs, n) - 1 = 2 workers are ever spawned and merged. *)
  check int_t "spawned workers merged" 2 (v "par.merges")

let test_pool_zero_tasks () =
  with_clean_telemetry @@ fun () ->
  check bool_t "empty result" true (Pool.run ~jobs:4 0 (fun i -> i) = [||]);
  let v name =
    Option.value ~default:0 (List.assoc_opt name (Telemetry.snapshot ()))
  in
  (* n <= 1 stays on the inline sequential path: no domains. *)
  check int_t "nothing submitted or merged" 0
    (v "par.tasks_completed" + v "par.merges")

let test_pool_last_task_exception () =
  with_clean_telemetry @@ fun () ->
  (* The failing task is the LAST one, so the worker that claims it is
     the last to steal work while the others are already draining; the
     exception must still surface after every join. *)
  Alcotest.check_raises "last-claimed task exception re-raised" Exit (fun () ->
      ignore (Pool.run ~jobs:4 8 (fun i -> if i = 7 then raise Exit)))

let test_jsonl_multi_domain () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_trace2" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  Telemetry.set_sink (Telemetry.jsonl_sink oc);
  ignore (Pool.run ~jobs:3 6 (fun i -> Telemetry.span "task" (fun () -> i)));
  Telemetry.set_sink Telemetry.null_sink;
  close_out oc;
  let r = Trace.read_file file in
  check int_t "no damaged lines" 0 r.Trace.skipped;
  check (Alcotest.option string_t) "schema is slocal.trace/4"
    (Some "slocal.trace/4") r.Trace.schema;
  let domains =
    List.sort_uniq compare (List.map Telemetry.event_domain r.Trace.events)
  in
  check bool_t "at least two distinct domain ids" true
    (List.length domains >= 2);
  (* Every worker's span_open/span_close pairs balance per domain. *)
  List.iter
    (fun d ->
      let count k =
        List.length
          (List.filter
             (fun e ->
               Telemetry.event_domain e = d
               &&
               match (e, k) with
               | Telemetry.Span_open _, `O | Telemetry.Span_close _, `C -> true
               | _ -> false)
             r.Trace.events)
      in
      check int_t
        (Printf.sprintf "domain %d spans balanced" d)
        (count `O) (count `C))
    domains

let test_mixed_schema_trace () =
  (* A /1 prefix (no domain fields), a /2 middle (domain, no GC-work
     deltas) and a /3 tail concatenated must read cleanly: legacy
     events default to domain 0 and zero GC work. *)
  let file = Filename.temp_file "slocal_mixed" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  List.iter
    (fun l -> output_string oc (l ^ "\n"))
    [
      {|{"kind":"trace_start","t_ns":1,"schema":"slocal.trace/1"}|};
      {|{"kind":"span_open","id":1,"parent":null,"name":"legacy","t_ns":2}|};
      {|{"kind":"span_close","id":1,"name":"legacy","t_ns":5,"dur_ns":3,"alloc_b":0}|};
      {|{"kind":"span_open","id":2,"parent":null,"name":"tagged","t_ns":6,"domain":4}|};
      {|{"kind":"span_close","id":2,"name":"tagged","t_ns":9,"dur_ns":3,"alloc_b":0,"domain":4}|};
      {|{"kind":"span_open","id":3,"parent":null,"name":"gcwork","t_ns":10,"domain":4}|};
      {|{"kind":"span_close","id":3,"name":"gcwork","t_ns":15,"dur_ns":5,"alloc_b":128,"minor_n":2,"major_n":1,"domain":4}|};
    ];
  close_out oc;
  let r = Trace.read_file file in
  check int_t "all lines parse" 0 r.Trace.skipped;
  check int_t "seven events" 7 (List.length r.Trace.events);
  check
    (Alcotest.list int_t)
    "legacy events default to domain 0, tagged keep theirs"
    [ 0; 0; 0; 4; 4; 4; 4 ]
    (List.map Telemetry.event_domain r.Trace.events);
  let closes =
    List.filter_map
      (function
        | Telemetry.Span_close { name; alloc_b; minor_n; major_n; _ } ->
            Some (name, (alloc_b, minor_n, major_n))
        | _ -> None)
      r.Trace.events
  in
  check
    (Alcotest.list
       (Alcotest.pair Alcotest.string (Alcotest.triple int_t int_t int_t)))
    "GC-work deltas default to 0 on legacy closes, survive on /3"
    [
      ("legacy", (0, 0, 0)); ("tagged", (0, 0, 0)); ("gcwork", (128, 2, 1));
    ]
    closes

let test_progress_dropped () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_progress" ".txt" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () ->
      Progress.set_mode Progress.Off;
      Progress.set_output stderr;
      Progress.set_interval_ns 500_000_000L;
      Progress.reset ();
      close_out_noerr oc;
      Sys.remove file)
  @@ fun () ->
  Progress.set_mode Progress.Forced;
  Progress.set_output oc;
  (* An hour-long window: everything after the phase's first tick
     loses the throttle and must count into progress.dropped. *)
  Progress.set_interval_ns 3_600_000_000_000L;
  Progress.start ~total:10 "phase";
  Progress.tick ~step:1 ();
  Progress.tick ~step:2 ();
  Progress.tick ~step:3 ();
  Progress.finish ();
  check int_t "only the first tick emitted" 1 (Progress.heartbeat_count ());
  check int_t "suppressed ticks counted" 2 (Progress.dropped_count ())

(* ------------------------------------------------------------------ *)
(* Request windows *)

let test_with_request_summary () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.rq" in
  let v, s1 =
    Telemetry.with_request ~id:"r1" (fun () ->
        Telemetry.incr c;
        Telemetry.incr c;
        7)
  in
  check int_t "body result" 7 v;
  check string_t "summary id" "r1" s1.Telemetry.rq_id;
  check int_t "own counter delta" 2
    (List.assoc "test.rq" s1.Telemetry.rq_counters);
  check int_t "request.count lands inside its own window" 1
    (List.assoc "request.count" s1.Telemetry.rq_counters);
  check bool_t "window closed" true (Telemetry.current_request () = None);
  let (), s2 =
    Telemetry.with_request ~id:"r2" (fun () -> Telemetry.incr c)
  in
  check int_t "second window sees only its own increment" 1
    (List.assoc "test.rq" s2.Telemetry.rq_counters);
  (* Non-overlapping windows: the per-request deltas are disjoint and
     sum exactly to the global registry delta. *)
  let total =
    Option.value ~default:0 (List.assoc_opt "test.rq" (Telemetry.snapshot ()))
  in
  check int_t "disjoint deltas sum to the global delta" total
    (List.assoc "test.rq" s1.Telemetry.rq_counters
    + List.assoc "test.rq" s2.Telemetry.rq_counters)

let test_with_request_exception () =
  with_clean_telemetry @@ fun () ->
  (try
     ignore
       (Telemetry.with_request ~id:"boom" (fun () : int -> failwith "x"))
   with Failure _ -> ());
  check bool_t "request id cleared after an exception" true
    (Telemetry.current_request () = None)

let test_with_request_trace_stamp () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_req" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  Telemetry.set_sink (Telemetry.jsonl_sink oc);
  ignore (Telemetry.span "outside" (fun () -> 0));
  ignore
    (Telemetry.with_request ~id:"rA" (fun () ->
         Telemetry.span "inside" (fun () -> 0)));
  ignore
    (Telemetry.with_request ~id:"rB" (fun () ->
         Telemetry.span "inside" (fun () -> 0)));
  Telemetry.set_sink Telemetry.null_sink;
  close_out oc;
  let whole = Trace.read_file file in
  check bool_t "whole-file tally lists both request ids" true
    (List.mem_assoc "rA" whole.Trace.requests
    && List.mem_assoc "rB" whole.Trace.requests);
  let ra = Trace.read_file ~request:"rA" file in
  let names =
    List.filter_map
      (function Telemetry.Span_open { name; _ } -> Some name | _ -> None)
      ra.Trace.events
  in
  check bool_t "filtered view keeps rA's spans only" true
    (List.mem "inside" names
    && List.mem "request" names
    && not (List.mem "outside" names));
  check bool_t "request tally still covers the whole file" true
    (ra.Trace.requests = whole.Trace.requests)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parsing" `Quick test_json_parse;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "delta and reset" `Quick test_delta;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "record and quantiles" `Quick
            test_histogram_record;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "json round-trip" `Quick test_histogram_json;
          Alcotest.test_case "registry and emission" `Quick
            test_histogram_registry;
          Alcotest.test_case "span histograms" `Quick
            test_span_histogram;
          Alcotest.test_case "span gc-work deltas" `Quick test_span_gc_work;
          Alcotest.test_case "major-cycle monitor" `Quick
            test_major_cycle_monitor;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null sink no-op" `Quick test_null_sink;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception closes spans" `Quick
            test_span_exception_close;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "flush idempotence" `Quick test_flush_idempotent;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "name mapping" `Quick test_openmetrics_names;
          Alcotest.test_case "exposition format" `Quick test_openmetrics_render;
          Alcotest.test_case "atomic publish" `Quick test_openmetrics_write_file;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "record round-trip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "append, truncation, find" `Quick
            test_ledger_append_read;
          Alcotest.test_case "counter diff" `Quick test_ledger_diff;
          Alcotest.test_case "gc" `Quick test_ledger_gc;
          Alcotest.test_case "run context" `Quick test_ledger_run_context;
        ] );
      ( "progress",
        [
          Alcotest.test_case "modes and heartbeats" `Quick test_progress_modes;
          Alcotest.test_case "dropped ticks under throttle" `Quick
            test_progress_dropped;
        ] );
      ( "domains",
        [
          Alcotest.test_case "pool absorbs worker stores" `Quick
            test_pool_absorb;
          Alcotest.test_case "decide_batch counters across widths" `Quick
            test_decide_batch_counters;
          Alcotest.test_case "pool parity" `Quick test_pool_parity;
          Alcotest.test_case "pool accounting" `Quick test_pool_counters;
          Alcotest.test_case "pool exception" `Quick test_pool_exception;
          Alcotest.test_case "width exceeds task count" `Quick
            test_pool_width_exceeds_tasks;
          Alcotest.test_case "zero tasks" `Quick test_pool_zero_tasks;
          Alcotest.test_case "exception in the last task" `Quick
            test_pool_last_task_exception;
          Alcotest.test_case "multi-domain jsonl trace" `Quick
            test_jsonl_multi_domain;
          Alcotest.test_case "mixed /1 + /2 + /3 trace" `Quick
            test_mixed_schema_trace;
        ] );
      ( "requests",
        [
          Alcotest.test_case "window summary and disjoint deltas" `Quick
            test_with_request_summary;
          Alcotest.test_case "exception clears the window" `Quick
            test_with_request_exception;
          Alcotest.test_case "trace req stamps and filtering" `Quick
            test_with_request_trace_stamp;
        ] );
    ]
