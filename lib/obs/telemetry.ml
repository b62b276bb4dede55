let trace_schema_version = "slocal.trace/4"
let now_ns = Monotonic_clock.now
let self_domain () = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* Metric handles.

   A metric is an interned (name, slot) pair; the slot indexes
   into a store's value array, so the hot-path write is a DLS fetch
   plus an array store.  The interning registry is the only table
   shared by every domain, and every access takes [intern_mu]. *)

type metric = { m_name : string; m_slot : int }

(* Guards [registry] and [slot_count]. *)
let intern_mu = Mutex.create ()

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let slot_count = ref 0

let counter m_name =
  Mutex.lock intern_mu;
  let m =
    match Hashtbl.find_opt registry m_name with
    | Some m -> m
    | None ->
        let m = { m_name; m_slot = !slot_count } in
        Stdlib.incr slot_count;
        Hashtbl.add registry m_name m;
        m
  in
  Mutex.unlock intern_mu;
  m

let metrics_list () =
  Mutex.lock intern_mu;
  let l = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock intern_mu;
  List.sort (fun a b -> compare a.m_name b.m_name) l

(* ------------------------------------------------------------------ *)
(* Histograms *)

module Histogram = struct
  (* Log-bucketed (base 2): bucket 0 holds values <= 0, bucket i >= 1
     holds [2^(i-1), 2^i - 1].  63 value buckets cover the positive
     int range; exact count/sum/min/max ride along so means are exact
     and quantile estimates clamp to the observed range. *)
  let bucket_count = 64

  (* Every instance lives in one store (see Stores below). *)
  type t = {
    mutable h_count : int;
    mutable h_sum : int;
    mutable h_min : int;
    mutable h_max : int;
    h_buckets : int array;
  }

  let create () =
    {
      h_count = 0;
      h_sum = 0;
      h_min = max_int;
      h_max = min_int;
      h_buckets = Array.make bucket_count 0;
    }

  let bucket_of_value v =
    if v <= 0 then 0
    else begin
      let bits = ref 0 and v = ref v in
      while !v <> 0 do
        Stdlib.incr bits;
        v := !v lsr 1
      done;
      min (bucket_count - 1) !bits
    end

  let bucket_bounds i =
    if i = 0 then (min_int, 0)
    else if i >= bucket_count - 1 then (1 lsl (bucket_count - 2), max_int)
    else (1 lsl (i - 1), (1 lsl i) - 1)

  let record h v =
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of_value v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  let count h = h.h_count
  let sum h = h.h_sum
  let is_empty h = h.h_count = 0
  let min_value h = if is_empty h then 0 else h.h_min
  let max_value h = if is_empty h then 0 else h.h_max

  let mean h =
    if is_empty h then 0. else float_of_int h.h_sum /. float_of_int h.h_count

  let reset h =
    h.h_count <- 0;
    h.h_sum <- 0;
    h.h_min <- max_int;
    h.h_max <- min_int;
    Array.fill h.h_buckets 0 bucket_count 0

  let copy h =
    {
      h_count = h.h_count;
      h_sum = h.h_sum;
      h_min = h.h_min;
      h_max = h.h_max;
      h_buckets = Array.copy h.h_buckets;
    }

  (* Add [b]'s records into [t] in place. *)
  let merge_into t b =
    t.h_count <- t.h_count + b.h_count;
    t.h_sum <- t.h_sum + b.h_sum;
    t.h_min <- min t.h_min b.h_min;
    t.h_max <- max t.h_max b.h_max;
    Array.iteri (fun i n -> t.h_buckets.(i) <- t.h_buckets.(i) + n) b.h_buckets

  let merge a b =
    let t = copy a in
    merge_into t b;
    t

  let equal a b =
    a.h_count = b.h_count && a.h_sum = b.h_sum
    && (is_empty a || (a.h_min = b.h_min && a.h_max = b.h_max))
    && a.h_buckets = b.h_buckets

  let quantile h q =
    if is_empty h then 0
    else if q <= 0. then min_value h
    else if q >= 1. then max_value h
    else begin
      let rank =
        max 1 (min h.h_count (int_of_float (ceil (q *. float_of_int h.h_count))))
      in
      let cum = ref 0 and result = ref (max_value h) in
      (try
         for i = 0 to bucket_count - 1 do
           cum := !cum + h.h_buckets.(i);
           if !cum >= rank then begin
             result := snd (bucket_bounds i);
             raise Exit
           end
         done
       with Exit -> ());
      max (min_value h) (min (max_value h) !result)
    end

  let nonempty_buckets h =
    List.filter
      (fun (_, n) -> n > 0)
      (List.init bucket_count (fun i -> (i, h.h_buckets.(i))))

  let of_buckets ~count ~sum ~min_value ~max_value buckets =
    let h = create () in
    h.h_count <- count;
    h.h_sum <- sum;
    if count > 0 then begin
      h.h_min <- min_value;
      h.h_max <- max_value
    end;
    List.iter
      (fun (i, n) ->
        if i < 0 || i >= bucket_count then
          invalid_arg "Histogram.of_buckets: bucket index out of range";
        h.h_buckets.(i) <- h.h_buckets.(i) + n)
      buckets;
    h
end

(* ------------------------------------------------------------------ *)
(* Events (a pool worker's store queues them until the join) *)

type event =
  | Trace_start of { t_ns : int64; domain : int }
  | Span_open of {
      id : int;
      parent : int option;
      name : string;
      t_ns : int64;
      domain : int;
    }
  | Span_close of {
      id : int;
      name : string;
      t_ns : int64;
      dur_ns : int64;
      alloc_b : int;
      minor_n : int;
      major_n : int;
      domain : int;
    }
  | Counters of { t_ns : int64; domain : int; values : (string * int) list }
  | Histograms of {
      t_ns : int64;
      domain : int;
      values : (string * Histogram.t) list;
    }
  | Provenance of {
      t_ns : int64;
      domain : int;
      step : int;
      label : string;
      values : (string * int) list;
    }
  | Message of { t_ns : int64; domain : int; text : string }

let event_domain = function
  | Trace_start { domain; _ }
  | Span_open { domain; _ }
  | Span_close { domain; _ }
  | Counters { domain; _ }
  | Histograms { domain; _ }
  | Provenance { domain; _ }
  | Message { domain; _ } ->
      domain

(* ------------------------------------------------------------------ *)
(* Stores.

   Telemetry is recorded into one store.  The one exception is a
   spawned pool worker, whose private store also queues the events it
   emits; [Pool.run] hands it to [absorb] on the calling domain after
   the join.  So every read and every sink call happens on one domain,
   with no live writer.  A domain's store is its DLS slot, whose
   default is the global store. *)

type store = {
  mutable values : int array; (* metric slot -> value *)
  hists : (string, Histogram.t) Hashtbl.t;
  mutable spans : (int * string * int64 * float * int * int) list;
      (* (id, name, t0, alloc_bytes0, minor0, major0), innermost
         first; the GC baselines feed the span_close deltas *)
  mutable pending : event list; (* a worker's events, newest first *)
}

let new_store () =
  Mutex.lock intern_mu;
  let n = max 64 !slot_count in
  Mutex.unlock intern_mu;
  { values = Array.make n 0; hists = Hashtbl.create 16; spans = []; pending = [] }

let global = new_store ()
let store_key : store Domain.DLS.key = Domain.DLS.new_key (fun () -> global)
let my_store () = Domain.DLS.get store_key

let private_store () =
  let s = new_store () in
  Domain.DLS.set store_key s;
  s

(* The calling domain's value array, grown for a newly registered slot. *)
let cells slot =
  let s = my_store () in
  let n = Array.length s.values in
  if slot >= n then begin
    let bigger = Array.make (max (2 * n) (slot + 1)) 0 in
    Array.blit s.values 0 bigger 0 n;
    s.values <- bigger
  end;
  s.values

let add m n =
  let v = cells m.m_slot in
  v.(m.m_slot) <- v.(m.m_slot) + n

let incr m = add m 1
let set m x = (cells m.m_slot).(m.m_slot) <- x

let store_value s slot =
  if slot < Array.length s.values then s.values.(slot) else 0

let value m = store_value (my_store ()) m.m_slot

let snapshot () =
  let s = my_store () in
  List.map (fun m -> (m.m_name, store_value s m.m_slot)) (metrics_list ())

let nonzero_snapshot () = List.filter (fun (_, v) -> v <> 0) (snapshot ())

let delta ~before ~after =
  List.filter_map
    (fun (nm, av) ->
      let v = av - Option.value (List.assoc_opt nm before) ~default:0 in
      if v <> 0 then Some (nm, v) else None)
    after

let histogram name =
  let s = my_store () in
  match Hashtbl.find_opt s.hists name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add s.hists name h;
      h

let histogram_snapshot () =
  Hashtbl.fold
    (fun nm h acc ->
      if Histogram.is_empty h then acc else (nm, Histogram.copy h) :: acc)
    (my_store ()).hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_metrics () =
  let s = my_store () in
  Array.fill s.values 0 (Array.length s.values) 0;
  Hashtbl.iter (fun _ h -> Histogram.reset h) s.hists

(* ------------------------------------------------------------------ *)
(* Major-cycle monitor.  While a sink is installed, a [Gc.create_alarm]
   hook fires at the end of every major GC cycle on the installing
   domain: it bumps the [gc.majors] counter and records the latency
   since the previous cycle's end into the [gc.major_cycle_ns]
   histogram — the pause-pressure signal of a run.  Both writes land
   in the installing domain's store (alarms are per-domain under OCaml
   5).  With the null sink no alarm exists and the hot path pays
   nothing. *)

let c_gc_majors = counter "gc.majors"

(* Installed and deleted only by set_sink, on the installing domain. *)
let gc_alarm : Gc.alarm option ref = ref None

let install_gc_alarm () =
  if !gc_alarm = None then begin
    (* The inter-cycle clock starts at install time, so the first
       cycle's latency measures from monitor start, not process
       start. *)
    let last = ref (now_ns ()) in
    gc_alarm :=
      Some
        (Gc.create_alarm (fun () ->
             let t = now_ns () in
             let dt = Int64.to_int (Int64.sub t !last) in
             last := t;
             incr c_gc_majors;
             Histogram.record (histogram "gc.major_cycle_ns") dt))
  end

let remove_gc_alarm () =
  match !gc_alarm with
  | None -> ()
  | Some a ->
      Gc.delete_alarm a;
      gc_alarm := None

(* ------------------------------------------------------------------ *)
(* Request context.

   A long-lived process (the [slocal serve] daemon) handles many
   requests against the same store.  [with_request] marks a window:
   while it is open, every emitted event carries the request id (the
   additive slocal.trace/4 [req] field, stamped at serialization
   time, so the worker events a pool run inside the window hands to
   the sink at its join are tagged too),
   and the summary returned at close reports only the window's own
   counter deltas — computed from registry snapshots, so the global
   totals and the live OpenMetrics registry stay exact.  Requests are
   process-global and non-overlapping by design: the daemon handles
   one request at a time (a pool run opened inside a window joins
   before it closes), which is exactly what makes the per-request deltas
   disjoint and their sum equal to the global delta. *)

(* Atomic swap at request boundaries; read-only on the emit path. *)
let current_request_id : string option Atomic.t = Atomic.make None

let current_request () = Atomic.get current_request_id

type request_summary = {
  rq_id : string;
  rq_wall_ns : int64;
  rq_alloc_b : int;
  rq_counters : (string * int) list;
}

let c_request_count = counter "request.count"

(* ------------------------------------------------------------------ *)
(* Sinks *)

type sink = Null | Emit of { emit : event -> unit; flush : unit -> unit }

let null_sink = Null
let collector_sink f = Emit { emit = f; flush = ignore }

(* The sink slot: atomic swap on install; read-only on the emit path. *)
let current = Atomic.make Null
let enabled () = match Atomic.get current with Null -> false | Emit _ -> true

(* The global store hands events to the sink; a worker's store queues
   them for [absorb]. *)
let emit ev =
  match Atomic.get current with
  | Null -> ()
  | Emit e ->
      let s = my_store () in
      if s == global then e.emit ev else s.pending <- ev :: s.pending

(* Flushing must be an idempotent no-op whatever state the sink is in:
   the at_exit safety net below can run after a CLI wrapper already
   flushed and closed the underlying channel, and a double flush must
   not duplicate or truncate the trailing record.  The buffer holds
   only complete lines, so a swallowed [Sys_error] from a closed
   channel can never leave a partial record behind. *)
let flush_sink () =
  match Atomic.get current with
  | Null -> ()
  | Emit e -> ( try e.flush () with _ -> ())

let set_sink s =
  (* Drain the outgoing sink first so buffered events reach their own
     trace, not the next one's channel. *)
  flush_sink ();
  Atomic.set current s;
  match s with
  | Null -> remove_gc_alarm ()
  | Emit e ->
      install_gc_alarm ();
      e.emit (Trace_start { t_ns = now_ns (); domain = self_domain () })

(* Safety net: if the process exits (node-budget abort, uncaught
   exception, plain [exit]) while a sink is still installed, push any
   buffered output through.  Registered at module load, so it runs
   after every later [at_exit] (LIFO): a CLI wrapper that tears its
   sink down first leaves this a no-op. *)
let () = at_exit flush_sink

(* Fold a joined worker's store into the caller's: metrics add,
   histograms merge, and the queued events reach the sink in the
   order the worker emitted them. *)
let absorb w =
  Mutex.lock intern_mu;
  Hashtbl.iter
    (fun _ m ->
      let v = store_value w m.m_slot in
      if v <> 0 then begin
        let c = cells m.m_slot in
        c.(m.m_slot) <- c.(m.m_slot) + v
      end)
    registry;
  Mutex.unlock intern_mu;
  Hashtbl.iter (fun nm h -> Histogram.merge_into (histogram nm) h) w.hists;
  List.iter emit (List.rev w.pending);
  w.pending <- []

(* ------------------------------------------------------------------ *)
(* Spans *)

(* fetch_and_add gives process-unique span ids. *)
let next_id = Atomic.make 0
let c_sink_flushes = counter "par.sink_flushes"

let span nm f =
  match Atomic.get current with
  | Null -> f ()
  | Emit _ ->
      let s = my_store () in
      let domain = self_domain () in
      let id = Atomic.fetch_and_add next_id 1 in
      let q0 = Gc.quick_stat () in
      let a0 = Gc.allocated_bytes () in
      let t0 = now_ns () in
      let parent =
        match s.spans with [] -> None | (pid, _, _, _, _, _) :: _ -> Some pid
      in
      emit (Span_open { id; parent; name = nm; t_ns = t0; domain });
      s.spans <-
        (id, nm, t0, a0, q0.Gc.minor_collections, q0.Gc.major_collections)
        :: s.spans;
      let finish () =
        (match s.spans with
        | (id', _, _, _, _, _) :: rest when id' = id -> s.spans <- rest
        | _ -> ());
        let t1 = now_ns () in
        let dur_ns = Int64.sub t1 t0 in
        let alloc_b = int_of_float (Gc.allocated_bytes () -. a0) in
        let q1 = Gc.quick_stat () in
        let minor_n = q1.Gc.minor_collections - q0.Gc.minor_collections in
        let major_n = q1.Gc.major_collections - q0.Gc.major_collections in
        Histogram.record (histogram ("span." ^ nm)) (Int64.to_int dur_ns);
        emit
          (Span_close
             {
               id;
               name = nm;
               t_ns = t1;
               dur_ns;
               alloc_b;
               minor_n;
               major_n;
               domain;
             });
        (* A top-level close is a natural crash-consistency point:
           write the buffered lines out. *)
        if s.spans = [] && s == global then flush_sink ()
      in
      Fun.protect ~finally:finish f

let with_request ~id f =
  (* The snapshot window brackets everything the request does —
     including its own [request.count] tick, so the sum of per-request
     counter deltas over a batch equals the global registry delta over
     the same batch.  The [request] span gives the trace a per-request
     root; with the null sink it reduces to a direct call. *)
  let before = snapshot () in
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ns () in
  Atomic.set current_request_id (Some id);
  let v =
    Fun.protect
      ~finally:(fun () -> Atomic.set current_request_id None)
      (fun () ->
        incr c_request_count;
        span "request" f)
  in
  let t1 = now_ns () in
  let alloc_b = int_of_float (Gc.allocated_bytes () -. a0) in
  ( v,
    {
      rq_id = id;
      rq_wall_ns = Int64.sub t1 t0;
      rq_alloc_b = alloc_b;
      rq_counters = delta ~before ~after:(snapshot ());
    } )

let emit_counters () =
  if enabled () then
    emit
      (Counters
         {
           t_ns = now_ns ();
           domain = self_domain ();
           values = nonzero_snapshot ();
         })

let emit_histograms () =
  if enabled () then begin
    match histogram_snapshot () with
    | [] -> ()
    | values ->
        emit (Histograms { t_ns = now_ns (); domain = self_domain (); values })
  end

let provenance ~step ~label values =
  if enabled () then
    emit
      (Provenance
         { t_ns = now_ns (); domain = self_domain (); step; label; values })

let message text =
  if enabled () then
    emit (Message { t_ns = now_ns (); domain = self_domain (); text })

(* ------------------------------------------------------------------ *)
(* Rendering *)

let histogram_to_json h : Json.t =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("sum", Json.Int (Histogram.sum h));
      ("min", Json.Int (Histogram.min_value h));
      ("max", Json.Int (Histogram.max_value h));
      ( "buckets",
        Json.List
          (List.map
             (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ])
             (Histogram.nonempty_buckets h)) );
    ]

let histogram_of_json j =
  let int_field k =
    match Option.bind (Json.member k j) Json.as_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "histogram: missing int field %S" k)
  in
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let* count = int_field "count" in
  let* sum = int_field "sum" in
  let* min_value = int_field "min" in
  let* max_value = int_field "max" in
  let* buckets =
    match Option.bind (Json.member "buckets" j) Json.as_list with
    | None -> Error "histogram: missing \"buckets\" list"
    | Some l ->
        List.fold_left
          (fun acc b ->
            let* acc = acc in
            match Json.as_list b with
            | Some [ i; n ] -> (
                match (Json.as_int i, Json.as_int n) with
                | Some i, Some n -> Ok ((i, n) :: acc)
                | _ -> Error "histogram: non-integer bucket entry")
            | _ -> Error "histogram: bucket entry is not a pair")
          (Ok []) l
  in
  match Histogram.of_buckets ~count ~sum ~min_value ~max_value buckets with
  | h -> Ok h
  | exception Invalid_argument msg -> Error msg

let event_to_json ev : Json.t =
  let t ns = ("t_ns", Json.Int (Int64.to_int ns)) in
  let d domain = ("domain", Json.Int domain) in
  (* The additive slocal.trace/4 field: stamped at serialization time,
     so every event emitted while a request window is open — including
     events from worker domains inside the window — carries the id. *)
  let obj fields =
    match Atomic.get current_request_id with
    | None -> Json.Obj fields
    | Some id -> Json.Obj (fields @ [ ("req", Json.String id) ])
  in
  match ev with
  | Trace_start { t_ns; domain } ->
      obj
        [
          ("schema", Json.String trace_schema_version);
          ("kind", Json.String "trace_start");
          t t_ns;
          d domain;
        ]
  | Span_open { id; parent; name; t_ns; domain } ->
      obj
        [
          ("kind", Json.String "span_open");
          ("id", Json.Int id);
          ( "parent",
            match parent with None -> Json.Null | Some p -> Json.Int p );
          ("name", Json.String name);
          t t_ns;
          d domain;
        ]
  | Span_close { id; name; t_ns; dur_ns; alloc_b; minor_n; major_n; domain } ->
      obj
        [
          ("kind", Json.String "span_close");
          ("id", Json.Int id);
          ("name", Json.String name);
          t t_ns;
          ("dur_ns", Json.Int (Int64.to_int dur_ns));
          ("alloc_b", Json.Int alloc_b);
          ("minor_n", Json.Int minor_n);
          ("major_n", Json.Int major_n);
          d domain;
        ]
  | Counters { t_ns; domain; values } ->
      obj
        [
          ("kind", Json.String "counters");
          t t_ns;
          d domain;
          ( "values",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) values) );
        ]
  | Histograms { t_ns; domain; values } ->
      obj
        [
          ("kind", Json.String "histograms");
          t t_ns;
          d domain;
          ( "values",
            Json.Obj (List.map (fun (k, h) -> (k, histogram_to_json h)) values)
          );
        ]
  | Provenance { t_ns; domain; step; label; values } ->
      obj
        [
          ("kind", Json.String "provenance");
          t t_ns;
          d domain;
          ("step", Json.Int step);
          ("label", Json.String label);
          ( "values",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) values) );
        ]
  | Message { t_ns; domain; text } ->
      obj
        [
          ("kind", Json.String "message");
          t t_ns;
          d domain;
          ("text", Json.String text);
        ]

(* How many pending bytes the sink accumulates before writing them
   out on its own: large enough to amortize the write, small enough
   that a killed run loses at most a few KB. *)
let flush_threshold = 8192

let jsonl_sink oc =
  (* Both channel operations tolerate a closed channel: a CLI teardown
     path may close [oc] before the module-level [at_exit] flush runs.
     The buffer holds only complete lines, so a swallowed [Sys_error]
     can never leave a partial record behind. *)
  let buf = Buffer.create 256 in
  let write () =
    if Buffer.length buf > 0 then begin
      (try
         Buffer.output_buffer oc buf;
         flush oc
       with Sys_error _ -> ());
      Buffer.clear buf;
      incr c_sink_flushes
    end
  in
  Emit
    {
      emit =
        (fun ev ->
          Buffer.add_string buf (Json.to_string (event_to_json ev));
          Buffer.add_char buf '\n';
          if Buffer.length buf >= flush_threshold then write ());
      flush =
        (fun () ->
          write ();
          try flush oc with Sys_error _ -> ());
    }

let pp_duration fmt ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Format.fprintf fmt "%.2fs" (f /. 1e9)
  else if f >= 1e6 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else if f >= 1e3 then Format.fprintf fmt "%.2fµs" (f /. 1e3)
  else Format.fprintf fmt "%Ldns" ns

let pp_summary fmt () =
  let values = nonzero_snapshot () in
  if values = [] then Format.fprintf fmt "no telemetry counters recorded@."
  else begin
    Format.fprintf fmt "telemetry counters:@.";
    List.iter (fun (k, v) -> Format.fprintf fmt "  %-36s %12d@." k v) values
  end;
  match histogram_snapshot () with
  | [] -> ()
  | hists ->
      Format.fprintf fmt "telemetry histograms:@.";
      Format.fprintf fmt "  %-36s %8s %10s %10s %10s %10s@." "" "count" "mean"
        "p50" "p90" "max";
      List.iter
        (fun (k, h) ->
          Format.fprintf fmt "  %-36s %8d %10.0f %10d %10d %10d@." k
            (Histogram.count h) (Histogram.mean h)
            (Histogram.quantile h 0.5)
            (Histogram.quantile h 0.9)
            (Histogram.max_value h))
        hists
