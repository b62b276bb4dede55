(* Trace analysis: span trees, self-time profiles, counter
   attribution, critical paths, provenance tables, folded stacks, and
   the multi-domain parallelism timeline. *)

module Telemetry = Slocal_obs.Telemetry
module Trace = Slocal_obs.Trace

(* Trace replay builds a fresh span table per parsed trace; never shared. *)
type span = {
  id : int;
  name : string;
  domain : int;
  t0 : int64;
  mutable t1 : int64;
  mutable alloc_b : int;
  mutable minor_n : int;
  mutable major_n : int;
  mutable closed : bool;
  mutable children : span list;  (* in open order *)
}

type provenance_step = {
  step : int;
  label : string;
  t_ns : int64;
  values : (string * int) list;
}

type t = {
  roots : span list;
  span_count : int;
  unclosed : int;
  event_count : int;
  skipped_lines : int;
  schema : string option;
  requests : (string * int) list;
      (* per-request event tally of the whole trace file (/4 [req]
         stamps), first-seen order; [] for older traces or raw event
         lists *)
  domains : int list;
      (* distinct domain ids carrying span events, ascending *)
  t_min : int64;
  t_max : int64;
  messages : (int64 * string) list;
  final_counters : (string * int) list;
      (* last counters event of the trace *)
  attribution : (string * (string * int) list) list;
      (* innermost-open-span name -> summed counter deltas between
         consecutive counters events *)
  provenance : provenance_step list;
  histograms : (string * Telemetry.Histogram.t) list;
}

let dur_ns s = Int64.to_int (Int64.sub s.t1 s.t0)

let self_ns s =
  let child = List.fold_left (fun a c -> a + dur_ns c) 0 s.children in
  max 0 (dur_ns s - child)

(* Allocation mirrors the time accounting exactly: cumulative bytes
   minus the children's cumulative bytes, clamped at 0, so the self
   allocations over a tree sum to the root's cumulative bytes. *)
let self_alloc_b s =
  let child = List.fold_left (fun a c -> a + c.alloc_b) 0 s.children in
  max 0 (s.alloc_b - child)

let rec iter_spans f s =
  f s;
  List.iter (iter_spans f) s.children

let fold_spans f acc t =
  let acc = ref acc in
  List.iter (iter_spans (fun s -> acc := f !acc s)) t.roots;
  !acc

(* ------------------------------------------------------------------ *)
(* Construction *)

let of_events ?(skipped = 0) events =
  let by_id : (int, span) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] and span_count = ref 0 in
  (* One open stack per domain (innermost first, by event order):
     span nesting is a per-domain notion in slocal.trace/2, and a /1
     trace simply keeps everything on domain 0's stack. *)
  let open_stacks : (int, span list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack_of d =
    match Hashtbl.find_opt open_stacks d with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add open_stacks d r;
        r
  in
  let span_domains = ref [] in
  let messages = ref [] in
  let final_counters = ref [] and prev_counters = ref [] in
  let attribution : (string, (string, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let provenance = ref [] in
  let histograms = ref [] in
  let schema = ref None in
  let t_min = ref Int64.max_int and t_max = ref Int64.min_int in
  let event_count = ref 0 in
  let see_t t =
    if Int64.compare t !t_min < 0 then t_min := t;
    if Int64.compare t !t_max > 0 then t_max := t
  in
  let attribute domain values =
    (* Counter deltas between consecutive snapshots are charged to the
       span that is innermost-open on the snapshot's own domain when
       the later snapshot is taken ("(toplevel)" outside all spans).
       Only legacy traces carry gauge values (last-value metrics such
       as [gc.*]); they subtract like counters here and so show up as
       +/- swings.  The final snapshot is reported separately and
       unmodified. *)
    let deltas =
      List.filter_map
        (fun (k, v) ->
          let d = v - Option.value ~default:0 (List.assoc_opt k !prev_counters) in
          if d <> 0 then Some (k, d) else None)
        values
    in
    prev_counters := values;
    if deltas <> [] then begin
      let owner =
        match !(stack_of domain) with [] -> "(toplevel)" | s :: _ -> s.name
      in
      let tbl =
        match Hashtbl.find_opt attribution owner with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 8 in
            Hashtbl.add attribution owner tbl;
            tbl
      in
      List.iter
        (fun (k, d) ->
          Hashtbl.replace tbl k
            (d + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        deltas
    end
  in
  List.iter
    (fun ev ->
      incr event_count;
      match (ev : Telemetry.event) with
      | Telemetry.Trace_start { t_ns; _ } ->
          see_t t_ns;
          if !schema = None then schema := Some Trace.schema_version
      | Telemetry.Span_open { id; parent; name; t_ns; domain } ->
          see_t t_ns;
          let s =
            {
              id;
              name;
              domain;
              t0 = t_ns;
              t1 = t_ns;
              alloc_b = 0;
              minor_n = 0;
              major_n = 0;
              closed = false;
              children = [];
            }
          in
          incr span_count;
          if not (List.mem domain !span_domains) then
            span_domains := domain :: !span_domains;
          Hashtbl.replace by_id id s;
          (match Option.bind parent (Hashtbl.find_opt by_id) with
          | Some p -> p.children <- p.children @ [ s ]
          | None -> roots := !roots @ [ s ]);
          let st = stack_of domain in
          st := s :: !st
      | Telemetry.Span_close { id; t_ns; alloc_b; minor_n; major_n; domain; _ }
        ->
          see_t t_ns;
          (match Hashtbl.find_opt by_id id with
          | Some s ->
              s.t1 <- t_ns;
              s.alloc_b <- alloc_b;
              s.minor_n <- minor_n;
              s.major_n <- major_n;
              s.closed <- true
          | None -> ());
          let st = stack_of domain in
          st := List.filter (fun s -> s.id <> id) !st
      | Telemetry.Counters { t_ns; domain; values } ->
          see_t t_ns;
          final_counters := values;
          attribute domain values
      | Telemetry.Histograms { t_ns; values; _ } ->
          see_t t_ns;
          histograms := values
      | Telemetry.Provenance { t_ns; step; label; values; _ } ->
          see_t t_ns;
          provenance := { step; label; t_ns; values } :: !provenance
      | Telemetry.Message { t_ns; text; _ } ->
          see_t t_ns;
          messages := (t_ns, text) :: !messages)
    events;
  (* Spans the trace never closed (truncated runs): close them at the
     last timestamp seen so durations stay well-defined. *)
  let unclosed = ref 0 in
  let close_t = if Int64.compare !t_max Int64.min_int > 0 then !t_max else 0L in
  Hashtbl.iter
    (fun _ s ->
      if not s.closed then begin
        incr unclosed;
        s.t1 <- if Int64.compare close_t s.t0 > 0 then close_t else s.t0
      end)
    by_id;
  {
    roots = !roots;
    span_count = !span_count;
    unclosed = !unclosed;
    event_count = !event_count;
    skipped_lines = skipped;
    schema = !schema;
    requests = [];
    domains = List.sort compare !span_domains;
    t_min = (if Int64.compare !t_min Int64.max_int = 0 then 0L else !t_min);
    t_max = (if Int64.compare !t_max Int64.min_int = 0 then 0L else !t_max);
    messages = List.rev !messages;
    final_counters = !final_counters;
    attribution =
      Hashtbl.fold
        (fun owner tbl acc ->
          ( owner,
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
            |> List.sort compare )
          :: acc)
        attribution []
      |> List.sort compare;
    provenance = List.rev !provenance;
    histograms = !histograms;
  }

let of_read_result (r : Trace.read_result) =
  let p = of_events ~skipped:r.Trace.skipped r.Trace.events in
  { p with schema = r.Trace.schema; requests = r.Trace.requests }

let of_file ?request path = of_read_result (Trace.read_file ?request path)

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type total = {
  agg_name : string;
  calls : int;
  cum_ns : int;
  self_total_ns : int;
  alloc_total_b : int;
  self_alloc_total_b : int;
  minor_total_n : int;
  major_total_n : int;
  max_ns : int;
}

let totals ?domain t =
  let keep s = match domain with None -> true | Some d -> s.domain = d in
  let tbl : (string, total) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (iter_spans (fun s ->
         if keep s then begin
           let d = dur_ns s and self = self_ns s in
           let prev =
             Option.value
               (Hashtbl.find_opt tbl s.name)
               ~default:
                 {
                   agg_name = s.name;
                   calls = 0;
                   cum_ns = 0;
                   self_total_ns = 0;
                   alloc_total_b = 0;
                   self_alloc_total_b = 0;
                   minor_total_n = 0;
                   major_total_n = 0;
                   max_ns = 0;
                 }
           in
           Hashtbl.replace tbl s.name
             {
               prev with
               calls = prev.calls + 1;
               cum_ns = prev.cum_ns + d;
               self_total_ns = prev.self_total_ns + self;
               alloc_total_b = prev.alloc_total_b + s.alloc_b;
               self_alloc_total_b = prev.self_alloc_total_b + self_alloc_b s;
               minor_total_n = prev.minor_total_n + s.minor_n;
               major_total_n = prev.major_total_n + s.major_n;
               max_ns = max prev.max_ns d;
             }
         end))
    t.roots;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> compare b.self_total_ns a.self_total_ns)

let total_wall_ns t = List.fold_left (fun a r -> a + dur_ns r) 0 t.roots
let total_self_ns t = fold_spans (fun a s -> a + self_ns s) 0 t
let total_alloc_b t = List.fold_left (fun a r -> a + r.alloc_b) 0 t.roots
let total_self_alloc_b t = fold_spans (fun a s -> a + self_alloc_b s) 0 t

(* Descend by a span weight: heaviest root, then heaviest child at
   each level.  [critical_path] weighs by time, [critical_path_alloc]
   by cumulative bytes. *)
let critical_path_by weight ?domain t =
  let roots =
    match domain with
    | None -> t.roots
    | Some d -> List.filter (fun s -> s.domain = d) t.roots
  in
  let heaviest = function
    | [] -> None
    | l ->
        Some
          (List.fold_left
             (fun best s -> if weight s > weight best then s else best)
             (List.hd l) (List.tl l))
  in
  let rec down acc s =
    match heaviest s.children with
    | None -> List.rev (s :: acc)
    | Some c -> down (s :: acc) c
  in
  match heaviest roots with None -> [] | Some r -> down [] r

let critical_path ?domain t = critical_path_by dur_ns ?domain t
let critical_path_alloc ?domain t = critical_path_by (fun s -> s.alloc_b) ?domain t

(* ------------------------------------------------------------------ *)
(* Parallelism timeline.

   A domain is "busy" while at least one of its root spans is open;
   per-domain busy segments are the union of that domain's root-span
   intervals.  Sweeping all segments gives the time spent at each
   concurrent-busy-domain level, from which utilization (busy
   domain-time over wall × lanes) and a serial-fraction estimate
   (time at level ≤ 1 over wall) follow. *)

type lane = {
  lane_domain : int;
  lane_spans : int;
  lane_busy_ns : int;
  lane_alloc_b : int;
      (* cumulative bytes of this domain's root spans — the domain's
         total attributed allocation, feeding the per-lane rate *)
}

type timeline = {
  tl_wall_ns : int;  (* trace window: t_max - t_min *)
  tl_lanes : lane list;  (* per domain with spans, ascending *)
  tl_busy_hist : (int * int) list;
      (* concurrent-busy-domains level -> ns at that level, all levels
         0..max present *)
  tl_max_concurrency : int;
  tl_utilization : float;
  tl_serial_fraction : float;
}

(* Union of possibly overlapping intervals, as sorted disjoint
   segments. *)
let merge_intervals intervals =
  let sorted = List.sort compare intervals in
  let rec go acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
        match acc with
        | (ps, pe) :: tail when Int64.compare s pe <= 0 ->
            go ((ps, (if Int64.compare e pe > 0 then e else pe)) :: tail) rest
        | _ -> go ((s, e) :: acc) rest)
  in
  go [] sorted

let timeline t =
  let wall_ns =
    let w = Int64.to_int (Int64.sub t.t_max t.t_min) in
    max 0 w
  in
  let segments_of d =
    List.filter_map
      (fun s ->
        if s.domain = d && Int64.compare s.t1 s.t0 > 0 then Some (s.t0, s.t1)
        else None)
      t.roots
    |> merge_intervals
  in
  let lanes =
    List.map
      (fun d ->
        let spans =
          fold_spans (fun a s -> if s.domain = d then a + 1 else a) 0 t
        in
        let busy =
          List.fold_left
            (fun a (s, e) -> a + Int64.to_int (Int64.sub e s))
            0 (segments_of d)
        in
        let alloc =
          List.fold_left
            (fun a s -> if s.domain = d then a + s.alloc_b else a)
            0 t.roots
        in
        {
          lane_domain = d;
          lane_spans = spans;
          lane_busy_ns = busy;
          lane_alloc_b = alloc;
        })
      t.domains
  in
  (* Sweep: +1 at each segment start, -1 at each end; ends sort before
     starts at equal timestamps so touching segments don't spike. *)
  let edges =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun (s, e) -> [ (s, 1); (e, -1) ])
          (segments_of d))
      t.domains
    |> List.sort (fun (ta, ka) (tb, kb) ->
           match Int64.compare ta tb with 0 -> compare ka kb | c -> c)
  in
  let hist : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let note level ns =
    if ns > 0 then
      Hashtbl.replace hist level
        (ns + Option.value ~default:0 (Hashtbl.find_opt hist level))
  in
  let level = ref 0 and cursor = ref t.t_min and max_level = ref 0 in
  List.iter
    (fun (time, k) ->
      note !level (Int64.to_int (Int64.sub time !cursor));
      cursor := time;
      level := !level + k;
      if !level > !max_level then max_level := !level)
    edges;
  note !level (Int64.to_int (Int64.sub t.t_max !cursor));
  let busy_hist =
    List.init (!max_level + 1) (fun k ->
        (k, Option.value ~default:0 (Hashtbl.find_opt hist k)))
  in
  let lanes_n = List.length lanes in
  let busy_total = List.fold_left (fun a l -> a + l.lane_busy_ns) 0 lanes in
  let utilization =
    if wall_ns = 0 || lanes_n = 0 then 0.
    else float_of_int busy_total /. (float_of_int wall_ns *. float_of_int lanes_n)
  in
  let serial_ns =
    List.fold_left
      (fun a (k, ns) -> if k <= 1 then a + ns else a)
      0 busy_hist
  in
  let serial_fraction =
    if wall_ns = 0 then 1. else float_of_int serial_ns /. float_of_int wall_ns
  in
  {
    tl_wall_ns = wall_ns;
    tl_lanes = lanes;
    tl_busy_hist = busy_hist;
    tl_max_concurrency = !max_level;
    tl_utilization = utilization;
    tl_serial_fraction = serial_fraction;
  }

(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph.pl / speedscope "collapsed" format):
   one "root;child;leaf <self_ns>" line per distinct stack. *)

let folded_by weight t =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go prefix s =
    let path = if prefix = "" then s.name else prefix ^ ";" ^ s.name in
    let self = weight s in
    if self > 0 then
      Hashtbl.replace tbl path
        (self + Option.value ~default:0 (Hashtbl.find_opt tbl path));
    List.iter (go path) s.children
  in
  List.iter (go "") t.roots;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let folded t = folded_by self_ns t

(* Bytes-weighted stacks: same collapsed format with self-allocation
   weights, so flamegraph.pl renders an alloc flamegraph directly. *)
let folded_alloc t = folded_by self_alloc_b t

let folded_to_string stacks =
  String.concat ""
    (List.map (fun (path, v) -> Printf.sprintf "%s %d\n" path v) stacks)

let parse_folded text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
               let path = String.sub line 0 i in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match int_of_string_opt v with
               | Some v -> Some (path, v)
               | None -> None))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Human rendering *)

let pp_ns fmt ns = Telemetry.pp_duration fmt (Int64.of_int ns)

let pp_bytes fmt b =
  let f = float_of_int b in
  if f >= 1e9 then Format.fprintf fmt "%.2fGB" (f /. 1e9)
  else if f >= 1e6 then Format.fprintf fmt "%.2fMB" (f /. 1e6)
  else if f >= 1e3 then Format.fprintf fmt "%.2fkB" (f /. 1e3)
  else Format.fprintf fmt "%dB" b

(* Fixed-width cell from a boxed formatter, so tables align. *)
let cell pp v = Format.asprintf "%a" pp v

let pp_provenance fmt steps =
  (* The sequence emitter's field names, rendered as columns when
     present; unknown extra fields append as k=v. *)
  let columns =
    [
      ("hash", "hash");
      ("labels", "labels");
      ("white_configs", "whites");
      ("black_configs", "blacks");
      ("diagram_edges", "diag-edges");
      ("re_cache_hits", "cache-hits");
      ("re_cache_misses", "cache-miss");
      ("wall_ns", "wall");
    ]
  in
  Format.fprintf fmt "derivation log (provenance events):@.";
  Format.fprintf fmt "  %4s %-14s" "step" "label";
  List.iter (fun (_, h) -> Format.fprintf fmt " %10s" h) columns;
  Format.fprintf fmt "@.";
  List.iter
    (fun p ->
      Format.fprintf fmt "  %4d %-14s" p.step p.label;
      List.iter
        (fun (k, _) ->
          match List.assoc_opt k p.values with
          | None -> Format.fprintf fmt " %10s" "-"
          | Some v when k = "hash" -> Format.fprintf fmt " %10x" (v land 0xffffffff)
          | Some v when k = "wall_ns" -> Format.fprintf fmt " %10s" (cell pp_ns v)
          | Some v -> Format.fprintf fmt " %10d" v)
        columns;
      let extra =
        List.filter (fun (k, _) -> not (List.mem_assoc k columns)) p.values
      in
      List.iter (fun (k, v) -> Format.fprintf fmt " %s=%d" k v) extra;
      Format.fprintf fmt "@.")
    steps

(* One line per span of a heaviest-child chain, indented by depth:
   [cum] then [self] in the chain's unit. *)
let pp_path ~indent pp_v ~cum ~self fmt path =
  List.iteri
    (fun depth s ->
      Format.fprintf fmt "%s%s%s %s (self %s)@." indent
        (String.make (2 * depth) ' ')
        s.name
        (cell pp_v (cum s))
        (cell pp_v (self s)))
    path

let pct part whole =
  if whole <= 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let pp_lanes fmt t =
  let tl = timeline t in
  Format.fprintf fmt
    "@.parallelism timeline: wall %a, %d domain lane(s), max concurrency %d@."
    pp_ns tl.tl_wall_ns (List.length tl.tl_lanes) tl.tl_max_concurrency;
  List.iter
    (fun l ->
      let rate_b_s =
        if l.lane_busy_ns <= 0 then 0
        else
          int_of_float
            (float_of_int l.lane_alloc_b /. float_of_int l.lane_busy_ns *. 1e9)
      in
      Format.fprintf fmt
        "  lane domain %-4d %6d span(s)  busy %10s  (%.1f%% of wall)  alloc \
         %10s  rate %10s/s@."
        l.lane_domain l.lane_spans
        (cell pp_ns l.lane_busy_ns)
        (pct l.lane_busy_ns tl.tl_wall_ns)
        (cell pp_bytes l.lane_alloc_b)
        (cell pp_bytes rate_b_s))
    tl.tl_lanes;
  Format.fprintf fmt "  concurrent busy domains (time at each level):@.";
  List.iter
    (fun (k, ns) ->
      Format.fprintf fmt "    %4d %10s  %5.1f%%@." k (cell pp_ns ns)
        (pct ns tl.tl_wall_ns))
    tl.tl_busy_hist;
  Format.fprintf fmt "  utilization %.1f%% of %d lane(s); serial fraction %.2f@."
    (100. *. tl.tl_utilization)
    (List.length tl.tl_lanes) tl.tl_serial_fraction;
  List.iter
    (fun l ->
      match critical_path ~domain:l.lane_domain t with
      | [] -> ()
      | path ->
          Format.fprintf fmt "  critical path (domain %d):@." l.lane_domain;
          pp_path ~indent:"    " pp_ns ~cum:dur_ns ~self:self_ns fmt path)
    tl.tl_lanes

let pp ?(top = 10) fmt t =
  Format.fprintf fmt "profile: %s, %d events (%d line(s) skipped), %d spans"
    (Option.value t.schema ~default:"no trace schema")
    t.event_count t.skipped_lines t.span_count;
  if t.unclosed > 0 then
    Format.fprintf fmt " (%d unclosed — truncated trace)" t.unclosed;
  (match t.domains with
  | [] | [ _ ] -> ()
  | ds -> Format.fprintf fmt ", %d domains" (List.length ds));
  Format.fprintf fmt ", wall %a@." pp_ns (total_wall_ns t);
  let alloc = total_alloc_b t and self_alloc = total_self_alloc_b t in
  let roots_sum f = List.fold_left (fun a r -> a + f r) 0 t.roots in
  Format.fprintf fmt "  allocated %a, %d minor / %d major collection(s)@."
    pp_bytes alloc
    (roots_sum (fun r -> r.minor_n))
    (roots_sum (fun r -> r.major_n));
  Format.fprintf fmt "  self-allocation total %a = root cumulative %a@."
    pp_bytes self_alloc pp_bytes alloc;
  List.iter (fun (_, text) -> Format.fprintf fmt "  | %s@." text) t.messages;
  (match t.requests with
  | [] -> ()
  | reqs ->
      Format.fprintf fmt "requests (%d): %s@." (List.length reqs)
        (String.concat ", "
           (List.map
              (fun (id, n) -> Printf.sprintf "%s (%d events)" id n)
              reqs)));
  let tot = totals t in
  Format.fprintf fmt "@.hotspots (by self time, top %d of %d):@." top
    (List.length tot);
  Format.fprintf fmt "  %-32s %6s %10s %10s %10s %10s %6s@." "span" "calls"
    "self" "cum" "max" "alloc" "self%";
  List.iteri
    (fun i a ->
      if i < top then
        Format.fprintf fmt "  %-32s %6d %10s %10s %10s %10s %5.1f%%@." a.agg_name
          a.calls
          (cell pp_ns a.self_total_ns)
          (cell pp_ns a.cum_ns)
          (cell pp_ns a.max_ns)
          (cell pp_bytes a.alloc_total_b)
          (pct a.self_total_ns (total_wall_ns t)))
    tot;
  Format.fprintf fmt "@.allocation hotspots (by self bytes, top %d of %d):@."
    top (List.length tot);
  Format.fprintf fmt "  %-32s %6s %10s %10s %6s %6s %6s@." "span" "calls"
    "self" "cum" "minor" "major" "self%";
  List.iteri
    (fun i a ->
      if i < top then
        Format.fprintf fmt "  %-32s %6d %10s %10s %6d %6d %5.1f%%@." a.agg_name
          a.calls
          (cell pp_bytes a.self_alloc_total_b)
          (cell pp_bytes a.alloc_total_b)
          a.minor_total_n a.major_total_n
          (pct a.self_alloc_total_b self_alloc))
    (List.sort
       (fun a b -> compare b.self_alloc_total_b a.self_alloc_total_b)
       tot);
  (match critical_path t with
  | [] -> ()
  | path ->
      Format.fprintf fmt "@.critical path (heaviest child chain):@.";
      pp_path ~indent:"  " pp_ns ~cum:dur_ns ~self:self_ns fmt path;
      Format.fprintf fmt "@.allocation critical path (heaviest child chain):@.";
      pp_path ~indent:"  " pp_bytes
        ~cum:(fun s -> s.alloc_b)
        ~self:self_alloc_b fmt (critical_path_alloc t));
  pp_lanes fmt t;
  (match t.attribution with
  | [] -> ()
  | attr ->
      Format.fprintf fmt
        "@.counter attribution (deltas between snapshots, by innermost open \
         span):@.";
      List.iter
        (fun (owner, kvs) ->
          Format.fprintf fmt "  %s:@." owner;
          List.iter
            (fun (k, v) -> Format.fprintf fmt "    %-36s %+12d@." k v)
            kvs)
        attr);
  (match t.provenance with
  | [] -> ()
  | steps ->
      Format.fprintf fmt "@.";
      pp_provenance fmt steps);
  (match t.histograms with
  | [] -> ()
  | hists ->
      Format.fprintf fmt "@.histograms:@.";
      Format.fprintf fmt "  %-32s %8s %10s %10s %10s %10s@." "" "count" "mean"
        "p50" "p90" "max";
      List.iter
        (fun (k, h) ->
          Format.fprintf fmt "  %-32s %8d %10.0f %10d %10d %10d@." k
            (Telemetry.Histogram.count h)
            (Telemetry.Histogram.mean h)
            (Telemetry.Histogram.quantile h 0.5)
            (Telemetry.Histogram.quantile h 0.9)
            (Telemetry.Histogram.max_value h))
        hists);
  match t.final_counters with
  | [] -> ()
  | kvs ->
      Format.fprintf fmt "@.final counters:@.";
      List.iter (fun (k, v) -> Format.fprintf fmt "  %-36s %12d@." k v) kvs
