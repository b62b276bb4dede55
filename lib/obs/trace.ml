(* Read [slocal.trace/4] (and /3, /2, /1) JSONL traces back into
   Telemetry events. *)

let schema_version = Telemetry.trace_schema_version

type read_result = {
  events : Telemetry.event list;
  skipped : int;
  schema : string option;
  requests : (string * int) list;
}

let int64_field j k =
  match Option.bind (Json.member k j) Json.as_int with
  | Some v -> Ok (Int64.of_int v)
  | None -> Error (Printf.sprintf "missing integer field %S" k)

let int_field j k =
  match Option.bind (Json.member k j) Json.as_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing integer field %S" k)

let string_field j k =
  match Option.bind (Json.member k j) Json.as_string with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing string field %S" k)

let int_values j k =
  match Option.bind (Json.member k j) Json.as_obj with
  | None -> Error (Printf.sprintf "missing object field %S" k)
  | Some kvs ->
      List.fold_left
        (fun acc (nm, v) ->
          match (acc, Json.as_int v) with
          | (Error _ as e), _ -> e
          | Ok acc, Some v -> Ok ((nm, v) :: acc)
          | Ok _, None ->
              Error (Printf.sprintf "non-integer value for %S in %S" nm k))
        (Ok []) kvs
      |> Result.map List.rev

(* [domain] is the additive slocal.trace/2 field: /1 traces carry no
   domain tag and were single-domain by construction, so default 0. *)
let domain_field j =
  Option.value ~default:0 (Option.bind (Json.member "domain" j) Json.as_int)

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let event_of_json j : (Telemetry.event, string) result =
  let* kind = string_field j "kind" in
  let domain = domain_field j in
  match kind with
  | "trace_start" ->
      let* t_ns = int64_field j "t_ns" in
      Ok (Telemetry.Trace_start { t_ns; domain })
  | "span_open" ->
      let* id = int_field j "id" in
      let* name = string_field j "name" in
      let* t_ns = int64_field j "t_ns" in
      let parent =
        match Json.member "parent" j with
        | Some (Json.Int p) -> Some p
        | _ -> None
      in
      Ok (Telemetry.Span_open { id; parent; name; t_ns; domain })
  | "span_close" ->
      let* id = int_field j "id" in
      let* name = string_field j "name" in
      let* t_ns = int64_field j "t_ns" in
      let* dur_ns = int64_field j "dur_ns" in
      (* [alloc_b] is an additive slocal.trace/1 field and
         [minor_n]/[major_n] are additive slocal.trace/3 fields:
         default 0 for traces written before they existed, so mixed
         /1 + /2 + /3 files read cleanly. *)
      let opt_int k =
        Option.value ~default:0 (Option.bind (Json.member k j) Json.as_int)
      in
      let alloc_b = opt_int "alloc_b" in
      let minor_n = opt_int "minor_n" in
      let major_n = opt_int "major_n" in
      Ok
        (Telemetry.Span_close
           { id; name; t_ns; dur_ns; alloc_b; minor_n; major_n; domain })
  | "counters" ->
      let* t_ns = int64_field j "t_ns" in
      let* values = int_values j "values" in
      Ok (Telemetry.Counters { t_ns; domain; values })
  | "histograms" ->
      let* t_ns = int64_field j "t_ns" in
      let* kvs =
        match Option.bind (Json.member "values" j) Json.as_obj with
        | Some kvs -> Ok kvs
        | None -> Error "missing object field \"values\""
      in
      let* values =
        List.fold_left
          (fun acc (nm, hj) ->
            let* acc = acc in
            let* h = Telemetry.histogram_of_json hj in
            Ok ((nm, h) :: acc))
          (Ok []) kvs
      in
      Ok (Telemetry.Histograms { t_ns; domain; values = List.rev values })
  | "provenance" ->
      let* t_ns = int64_field j "t_ns" in
      let* step = int_field j "step" in
      let* label = string_field j "label" in
      let* values = int_values j "values" in
      Ok (Telemetry.Provenance { t_ns; domain; step; label; values })
  | "message" ->
      let* t_ns = int64_field j "t_ns" in
      let* text = string_field j "text" in
      Ok (Telemetry.Message { t_ns; domain; text })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

let read_channel ?request ic =
  let events = ref [] and skipped = ref 0 and schema = ref None in
  (* Per-request event tally in first-seen order; the [req] field is
     the additive slocal.trace/4 stamp, read at the JSON level because
     parsed events do not carry it. *)
  let req_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let req_order = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         match Json.of_string line with
         | Error _ -> incr skipped
         | Ok j -> (
             match event_of_json j with
             | Error _ -> incr skipped
             | Ok ev ->
                 (match ev with
                 | Telemetry.Trace_start _ when !schema = None ->
                     schema :=
                       Option.bind (Json.member "schema" j) Json.as_string
                 | _ -> ());
                 let rid =
                   Option.bind (Json.member "req" j) Json.as_string
                 in
                 (match rid with
                 | Some id ->
                     if not (Hashtbl.mem req_counts id) then
                       req_order := id :: !req_order;
                     Hashtbl.replace req_counts id
                       (1
                       + Option.value ~default:0 (Hashtbl.find_opt req_counts id)
                       )
                 | None -> ());
                 let keep =
                   match request with
                   | None -> true
                   | Some want -> rid = Some want
                 in
                 if keep then events := ev :: !events)
       end
     done
   with End_of_file -> ());
  {
    events = List.rev !events;
    skipped = !skipped;
    schema = !schema;
    requests =
      List.rev_map
        (fun id -> (id, Option.value ~default:0 (Hashtbl.find_opt req_counts id)))
        !req_order;
  }

let read_file ?request path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> read_channel ?request ic)
