module Multiset = Slocal_util.Multiset
module Config_key = Slocal_util.Config_key
module Telemetry = Slocal_obs.Telemetry
module Pool = Slocal_obs.Pool

let c_memo_hits = Telemetry.counter "constr.memo_hits"
let c_memo_misses = Telemetry.counter "constr.memo_misses"

module Config_set = Set.Make (struct
  type t = Multiset.t

  let compare = Multiset.compare
end)

(* staticcheck: shared-cache-needs-lock per-constraint memo tables are filled on demand; [memo_mu] is held across every memo lookup+store while Pool.parallel_active, and the down slots publish through Atomic *)
type t = {
  arity : int;
  configs : Config_set.t;
  bits : int;
      (* Key width for the packed-configuration encoding: enough bits
         for the largest label appearing in a configuration.  All keys
         of one constraint (membership, down-closures) use it. *)
  member : unit Config_key.Tbl.t;
  (* Downward closure by size, built lazily: down.(k) holds the keys of
     all size-k sub-multisets of configurations.  Built into a fresh
     table and published with one [Atomic.set], so concurrent readers
     see either [None] (and build their own copy — a benign duplicate,
     last store wins, no counters involved) or a complete table that
     is immutable from then on. *)
  down : unit Config_key.Tbl.t option Atomic.t array;
  (* Memoized quantified-choice queries, one table per quantifier,
     keyed by the canonicalized position sets (each set sorted and
     deduplicated, the positions sorted — the answers only depend on
     the multiset of position sets). *)
  memo_exists : (int list list, bool) Hashtbl.t;
  memo_for_all : (int list list, bool) Hashtbl.t;
  memo_exists_partial : (int list list, bool) Hashtbl.t;
  memo_for_all_partial : (int list list, bool) Hashtbl.t;
  (* Taken around every memo lookup+compute+store — but only while a
     pool region is open ([Pool.parallel_active]; one atomic load on
     the sequential path).  Holding it across the compute keeps the
     memo accounting schedule-independent: the miss count is exactly
     the number of distinct canonical keys, the hit count exactly the
     remaining queries, the same totals as a sequential run. *)
  memo_mu : Mutex.t;
}

let key t c = Config_key.of_multiset ~bits:t.bits c

let make ~arity config_list =
  List.iter
    (fun c ->
      if Multiset.size c <> arity then
        invalid_arg "Constr.make: configuration has wrong size")
    config_list;
  let configs = Config_set.of_list config_list in
  let label_bound =
    Config_set.fold
      (fun c acc ->
        List.fold_left (fun acc l -> max acc (l + 1)) acc (Multiset.to_list c))
      configs 1
  in
  let bits = Config_key.bits_for label_bound in
  let member = Config_key.Tbl.create (max 16 (Config_set.cardinal configs)) in
  Config_set.iter
    (fun c ->
      Config_key.Tbl.replace member (Config_key.of_multiset ~bits c) ())
    configs;
  {
    arity;
    configs;
    bits;
    member;
    down = Array.init (arity + 1) (fun _ -> Atomic.make None);
    memo_exists = Hashtbl.create 64;
    memo_for_all = Hashtbl.create 64;
    memo_exists_partial = Hashtbl.create 64;
    memo_for_all_partial = Hashtbl.create 64;
    memo_mu = Mutex.create ();
  }

let arity t = t.arity
let configs t = Config_set.elements t.configs
let size t = Config_set.cardinal t.configs
let mem c t = Config_key.Tbl.mem t.member (key t c)

let down_closure t k =
  match Atomic.get t.down.(k) with
  | Some s -> s
  | None ->
      let s = Config_key.Tbl.create 64 in
      Config_set.iter
        (fun c ->
          List.iter
            (fun sub -> Config_key.Tbl.replace s (key t sub) ())
            (Multiset.sub_multisets k c))
        t.configs;
      Atomic.set t.down.(k) (Some s);
      s

let extendable partial t =
  let k = Multiset.size partial in
  if k > t.arity then false
  else if k = t.arity then mem partial t
  else Config_key.Tbl.mem (down_closure t k) (key t partial)

(* Quantified-choice tests.  Positions are processed one at a time; the
   accumulated partial multiset is pruned through [extendable].  Each
   query is memoized per constraint under its canonical key. *)

let canonical_sets sets =
  List.sort compare (List.map (fun s -> List.sort_uniq compare s) sets)

let memoized t tbl sets compute =
  let k = canonical_sets sets in
  let lookup () =
    match Hashtbl.find_opt tbl k with
    | Some v ->
        Telemetry.incr c_memo_hits;
        v
    | None ->
        Telemetry.incr c_memo_misses;
        let v = compute () in
        Hashtbl.add tbl k v;
        v
  in
  if Pool.parallel_active () then begin
    (* The lock spans lookup, compute and store, so exactly one task
       computes each distinct key and every other query of it is a
       hit — the same hit/miss totals as a sequential run, whatever
       the schedule.  [compute] recurses only into the lock-free
       membership/extendability paths of the same constraint, never
       back into [memoized], so the mutex is never re-entered. *)
    Mutex.lock t.memo_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.memo_mu) lookup
  end
  else lookup ()

let exists_pick ~complete sets t =
  let rec go acc = function
    | [] -> complete acc
    | set :: rest ->
        List.exists
          (fun l ->
            let acc' = Multiset.add l acc in
            extendable acc' t && go acc' rest)
          set
  in
  go Multiset.empty sets

let for_all_pick ~complete sets t =
  let rec go acc = function
    | [] -> complete acc
    | set :: rest ->
        List.for_all
          (fun l ->
            let acc' = Multiset.add l acc in
            extendable acc' t && go acc' rest)
          set
  in
  go Multiset.empty sets

let exists_choice sets t =
  if List.length sets <> t.arity then invalid_arg "Constr.exists_choice: arity mismatch";
  memoized t t.memo_exists sets @@ fun () ->
  exists_pick ~complete:(fun acc -> mem acc t) sets t

let for_all_choices sets t =
  if List.length sets <> t.arity then invalid_arg "Constr.for_all_choices: arity mismatch";
  (* A partial pick that is not extendable witnesses a violating full
     pick (any completion of it), so the universal test may
     short-circuit on it — but only when a completion exists.  An
     empty position set makes the product empty and the test
     vacuously true, answered before the walk (which could otherwise
     short-circuit on an earlier position). *)
  List.mem [] sets
  || memoized t t.memo_for_all sets @@ fun () ->
     for_all_pick ~complete:(fun acc -> mem acc t) sets t

let exists_choice_partial sets t =
  if List.length sets > t.arity then invalid_arg "Constr.exists_choice_partial";
  memoized t t.memo_exists_partial sets @@ fun () ->
  exists_pick ~complete:(fun acc -> extendable acc t) sets t

let for_all_choices_partial sets t =
  if List.length sets > t.arity then invalid_arg "Constr.for_all_choices_partial";
  List.mem [] sets
  || memoized t t.memo_for_all_partial sets @@ fun () ->
     for_all_pick ~complete:(fun acc -> extendable acc t) sets t

let labels_used t =
  Config_set.fold
    (fun c acc -> List.fold_left (fun acc l -> l :: acc) acc (Multiset.support c))
    t.configs []
  |> List.sort_uniq compare

let map_labels f t =
  make ~arity:t.arity
    (List.map (fun c -> Multiset.map f c) (configs t))

let equal a b = a.arity = b.arity && Config_set.equal a.configs b.configs
let subset a b = Config_set.subset a.configs b.configs

let pp alphabet fmt t =
  let pp_config fmt c =
    Multiset.pp (fun fmt l -> Alphabet.pp_label alphabet fmt l) fmt c
  in
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_newline fmt ())
    pp_config fmt (configs t)
