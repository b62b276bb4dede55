(* Serialize the live Telemetry registry to the Prometheus text
   exposition format, so a long-horizon run can drop a
   textfile-collector-ready snapshot next to its trace.

   Name mapping (documented in DESIGN.md §6): a dotted registry name
   [re.cache_hits] becomes [slocal_re_cache_hits]; counters gain the
   conventional [_total] suffix; histograms render their log-2 buckets
   as cumulative [_bucket{le="..."}] series (upper bounds are the
   inclusive bucket bounds) plus [_sum]/[_count]. *)

let sanitize nm =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    nm

let metric_name nm = "slocal_" ^ sanitize nm

let render_buf buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (nm, v) ->
      let full = metric_name nm ^ "_total" in
      pr "# HELP %s slocal counter %s\n" full nm;
      pr "# TYPE %s counter\n" full;
      pr "%s %d\n" full v)
    (Telemetry.snapshot ());
  List.iter
    (fun (nm, h) ->
      let base = metric_name nm in
      pr "# HELP %s slocal histogram %s (log2 buckets)\n" base nm;
      pr "# TYPE %s histogram\n" base;
      let cum = ref 0 in
      List.iter
        (fun (i, n) ->
          cum := !cum + n;
          let _, hi = Telemetry.Histogram.bucket_bounds i in
          pr "%s_bucket{le=\"%d\"} %d\n" base hi !cum)
        (Telemetry.Histogram.nonempty_buckets h);
      pr "%s_bucket{le=\"+Inf\"} %d\n" base (Telemetry.Histogram.count h);
      pr "%s_sum %d\n" base (Telemetry.Histogram.sum h);
      pr "%s_count %d\n" base (Telemetry.Histogram.count h))
    (Telemetry.histogram_snapshot ());
  pr "# EOF\n"

let render () =
  let buf = Buffer.create 4096 in
  render_buf buf;
  Buffer.contents buf

let write_file path =
  (* Atomic publish: a scraping textfile collector must never see a
     half-written exposition, so write a sibling temp file and rename
     over the target. *)
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "openmetrics" ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (render ()));
      Sys.rename tmp path)
