(* Live progress heartbeat for long-horizon runs.

   One throttled line at a time to stderr (never stdout, so JSON and
   table output stay machine-parseable), driven from the sequence
   iteration loop and the solver's node counter.  Inactive unless the
   CLI opts a command in: [Auto] emits only when stderr is a TTY,
   [Forced] (the --progress flag) emits unconditionally, [Off] (the
   library default) never emits, so instrumented kernels running under
   tests or the bench harness stay silent.

   Under domains, every would-be heartbeat races on one atomic
   last-emit timestamp: the CAS winner emits its line with a single
   [output_string] (whole-line, so concurrent winners from later
   windows never interleave partial lines) and every loser bumps the
   [progress.dropped] counter instead. *)

type mode = Off | Auto | Forced

(* Set once by the CLI before kernels run. *)
let mode = ref Off
let out = ref stderr
let interval_ns = ref 500_000_000L
let heartbeats = Telemetry.counter "progress.heartbeats"
let dropped = Telemetry.counter "progress.dropped"

(* stderr's TTY-ness cannot change mid-process: one syscall at module
   initialisation, so [Auto]-mode ticks from the solver hot loop (pool
   workers included) read a plain immutable bool. *)
let stderr_tty = try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false

let is_active () =
  match !mode with Off -> false | Forced -> true | Auto -> stderr_tty

let set_mode m = mode := m
let set_output oc = out := oc
let set_interval_ns ns = interval_ns := ns
let heartbeat_count () = Telemetry.value heartbeats
let dropped_count () = Telemetry.value dropped

(* The single atomic last-emit timestamp: all heartbeat sources
   (phase ticks and solver ticks, from any domain) throttle through
   it.  0L means "emit immediately" (fresh phase). *)
let last_emit : int64 Atomic.t = Atomic.make 0L

(* [true] for exactly one caller per interval window: losers (too
   early, or beaten to the CAS) count a dropped tick. *)
let claim_emit t =
  let last = Atomic.get last_emit in
  if
    (last = 0L || Int64.compare (Int64.sub t last) !interval_ns >= 0)
    && Atomic.compare_and_set last_emit last t
  then true
  else begin
    Telemetry.incr dropped;
    false
  end

let emit_line line =
  Telemetry.incr heartbeats;
  (try
     (* One whole-line write: out_channel operations are atomic per
        call under OCaml 5, so lines never interleave partially. *)
     output_string !out ("[progress] " ^ line ^ "\n");
     flush !out
   with Sys_error _ -> ())

let pp_secs s =
  if s >= 3600. then Printf.sprintf "%dh%02dm" (int_of_float s / 3600)
      (int_of_float s mod 3600 / 60)
  else if s >= 60. then Printf.sprintf "%dm%02ds" (int_of_float s / 60)
      (int_of_float s mod 60)
  else Printf.sprintf "%.1fs" s

(* ------------------------------------------------------------------ *)
(* Phase progress: an explicit start/tick/finish protocol used by
   [Sequence.iterate_re], with an ETA from the target-length budget.
   Phases are driven from the coordinating domain; worker ticks only
   race on [last_emit]. *)

(* One phase display is active at a time. *)
let ph_label = ref ""
let ph_total = ref None
let ph_t0 = ref 0L
let ph_started = ref false

let start ?total label =
  if is_active () then begin
    ph_label := label;
    ph_total := total;
    ph_t0 := Telemetry.now_ns ();
    (* A fresh phase emits its first tick immediately. *)
    Atomic.set last_emit 0L;
    ph_started := true
  end

let tick ?step ?info () =
  if !ph_started && is_active () then begin
    let t = Telemetry.now_ns () in
    if claim_emit t then begin
      let elapsed = Int64.to_float (Int64.sub t !ph_t0) /. 1e9 in
      let pos =
        match (step, !ph_total) with
        | Some k, Some n when n > 0 ->
            let eta =
              if k > 0 then
                Printf.sprintf " eta %s"
                  (pp_secs (elapsed /. float_of_int k *. float_of_int (n - k)))
              else ""
            in
            Printf.sprintf " %d/%d%s" k n eta
        | Some k, _ -> Printf.sprintf " %d" k
        | None, _ -> ""
      in
      let info = match info with None -> "" | Some s -> " | " ^ s in
      emit_line
        (Printf.sprintf "%s%s | elapsed %s%s" !ph_label pos (pp_secs elapsed)
           info)
    end
  end

let finish () = ph_started := false

(* ------------------------------------------------------------------ *)
(* Solver heartbeat: called from the search hot loop with the
   cumulative node count of the current solve.  The nodes/s rate
   needs a previous (nodes, t) observation; that pair is domain-local
   (each domain observes its own solves), while emission rights still
   go through the shared [last_emit] throttle.  A node count below
   the last one means a new solve began on that domain. *)

let sv_key : (int ref * int64 ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref 0, ref 0L))

let solver_tick ~nodes =
  if is_active () then begin
    let sv_nodes, sv_t = Domain.DLS.get sv_key in
    let t = Telemetry.now_ns () in
    if !sv_t = 0L || nodes < !sv_nodes then begin
      sv_t := t;
      sv_nodes := nodes
    end
    else if Int64.compare (Int64.sub t !sv_t) !interval_ns >= 0 then begin
      if claim_emit t then begin
        let dt = Int64.to_float (Int64.sub t !sv_t) /. 1e9 in
        let rate = float_of_int (nodes - !sv_nodes) /. dt in
        emit_line (Printf.sprintf "solver %d nodes (%.0f nodes/s)" nodes rate)
      end;
      (* Start a fresh rate window whether or not this domain won the
         emission race, so a losing domain's next rate stays local. *)
      sv_t := t;
      sv_nodes := nodes
    end
  end

let reset () =
  ph_started := false;
  Atomic.set last_emit 0L;
  let sv_nodes, sv_t = Domain.DLS.get sv_key in
  sv_nodes := 0;
  sv_t := 0L
