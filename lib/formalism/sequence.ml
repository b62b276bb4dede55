module Telemetry = Slocal_obs.Telemetry
module Progress = Slocal_obs.Progress

type step = {
  index : int;
  verified : bool option;
}

let c_steps = Telemetry.counter "sequence.steps"
let c_checks = Telemetry.counter "sequence.checks"

(* The RE cache counters, interned here to read their deltas around
   each iteration (registration is idempotent; Re_step owns the
   increments). *)
let c_re_hits = Telemetry.counter "re.cache_hits"
let c_re_misses = Telemetry.counter "re.cache_misses"

(* One derivation-log record per problem of the sequence.  Guarded on
   [Telemetry.enabled]: the hash and diagram are only computed when a
   sink is listening, under their own span so a trace books their cost
   apart from the RE steps. *)
let emit_provenance ~index ~wall_ns ~cache_hits ~cache_misses (p : Problem.t) =
  if Telemetry.enabled () then begin
    Telemetry.span "sequence.provenance" (fun () ->
        Telemetry.provenance ~step:index ~label:p.Problem.name
          [
            ("hash", Problem.canonical_hash p);
            ("labels", Alphabet.size p.Problem.alphabet);
            ("white_configs", Constr.size p.Problem.white);
            ("black_configs", Constr.size p.Problem.black);
            ("diagram_edges", List.length (Diagram.edges (Diagram.black p)));
            ("re_cache_hits", cache_hits);
            ("re_cache_misses", cache_misses);
            ("wall_ns", wall_ns);
          ]);
    (* A per-step counter snapshot, taken outside the provenance span:
       gives [trace report]'s counter-delta attribution an interval per
       iteration, charged to the enclosing sequence span. *)
    Telemetry.emit_counters ()
  end

let check ?max_nodes problems =
  Telemetry.span "sequence.check" @@ fun () ->
  let rec go index = function
    | p :: (q :: _ as rest) ->
        Telemetry.incr c_checks;
        let verified =
          Telemetry.span "sequence.check_step" (fun () ->
              Relaxation.exists ?max_nodes (Re_step.re p) q)
        in
        { index; verified } :: go (index + 1) rest
    | [ _ ] | [] -> []
  in
  go 1 problems

let verdict steps =
  if List.exists (fun s -> s.verified = Some false) steps then Some false
  else if List.exists (fun s -> s.verified = None) steps then None
  else Some true

let is_lower_bound_sequence ?max_nodes problems =
  verdict (check ?max_nodes problems)

let iterate_re p ~steps =
  if steps < 0 then
    invalid_arg
      (Printf.sprintf "Sequence.iterate_re: steps must be at least 0, got %d"
         steps);
  Telemetry.span "sequence.iterate_re" @@ fun () ->
  emit_provenance ~index:0 ~wall_ns:0 ~cache_hits:0 ~cache_misses:0 p;
  Progress.start ~total:steps "sequence.iterate_re";
  let rec go p i =
    if i = 0 then begin
      Progress.finish ();
      [ p ]
    end
    else begin
      Telemetry.incr c_steps;
      let h0 = Telemetry.value c_re_hits
      and m0 = Telemetry.value c_re_misses in
      let t0 = Telemetry.now_ns () in
      let q = Telemetry.span "sequence.step" (fun () -> Re_step.re p) in
      let wall_ns = Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0) in
      emit_provenance
        ~index:(steps - i + 1)
        ~wall_ns
        ~cache_hits:(Telemetry.value c_re_hits - h0)
        ~cache_misses:(Telemetry.value c_re_misses - m0)
        q;
      if Progress.is_active () then begin
        let hits = Telemetry.value c_re_hits
        and misses = Telemetry.value c_re_misses in
        let total = hits + misses in
        let hit_rate =
          if total = 0 then 0.
          else 100. *. float_of_int hits /. float_of_int total
        in
        Progress.tick
          ~step:(steps - i + 1)
          ~info:
            (Printf.sprintf "labels=%d re.cache %.0f%%"
               (Alphabet.size q.Problem.alphabet)
               hit_rate)
          ()
      end;
      p :: go q (i - 1)
    end
  in
  go p steps

let constant p ~k = List.init (k + 1) (fun _ -> p)
