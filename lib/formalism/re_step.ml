module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset
module Config_key = Slocal_util.Config_key
module Telemetry = Slocal_obs.Telemetry
module Pool = Slocal_obs.Pool

type grounding = {
  problem : Problem.t;
  meaning : Bitset.t array;
}

type kernel = Fast | Reference

let kernel = ref Fast (* staticcheck: immutable-after-init selected once by the CLI / test setup before any RE runs *)
let set_kernel k = kernel := k
let current_kernel () = !kernel

let c_steps = Telemetry.counter "re.steps"
let c_enum_nodes = Telemetry.counter "re.enum_nodes"
let c_cache_hits = Telemetry.counter "re.cache_hits"
let c_cache_misses = Telemetry.counter "re.cache_misses"
let g_labels_out = Telemetry.gauge "re.labels_out"
let g_strong_configs = Telemetry.gauge "re.strong_configs"
let g_weak_configs = Telemetry.gauge "re.weak_configs"

(* Enumerate multisets of size [arity] over [candidates] (given as an
   array, chosen with non-decreasing indices to avoid duplicates),
   keeping those accepted by [full] and pruning prefixes rejected by
   [partial].  Still the engine of the weak (existential) side — whose
   good set is upward-closed, so the lattice prune below does not apply
   — and of the lift construction. *)
let enumerate_set_configs ~candidates ~arity ~partial ~full =
  let cands = Array.of_list candidates in
  let k = Array.length cands in
  let acc = ref [] in
  let nodes = ref 0 in
  let rec go start chosen depth =
    incr nodes;
    if depth = arity then begin
      let config = List.rev chosen in
      if full config then acc := config :: !acc
    end
    else
      for i = start to k - 1 do
        let chosen' = cands.(i) :: chosen in
        if partial (List.rev chosen') then go i chosen' (depth + 1)
      done
  in
  go 0 [] 0;
  Telemetry.add c_enum_nodes !nodes;
  List.rev !acc

let sets_to_lists config = List.map Bitset.to_list config

(* Alignment test shared with the maximality filter: [a] is dominated
   by [b] when a ≠ b and some permutation has a_i ⊆ b_φ(i). *)
let match_up_subset a b =
  let rec match_up a_rest b_rest =
    match a_rest with
    | [] -> true
    | x :: a' ->
        let rec try_pick seen = function
          | [] -> false
          | y :: b' ->
              (Bitset.subset x y && match_up a' (List.rev_append seen b'))
              || try_pick (y :: seen) b'
        in
        try_pick [] b_rest
  in
  match_up a b

(* Maximal good configurations by a top-down subset-lattice search.

   A set configuration is good when every per-position choice lies in
   [constr].  Goodness is downward closed in the position-wise subset
   order over the candidate family: shrinking a position only removes
   choices.  So instead of enumerating the whole (large) good down-set
   bottom-up and filtering quadratically, start from the top
   configurations (all positions at ⊆-maximal candidates — for
   right-closed candidate sets that is the single all-labels universe)
   and branch downward only where a concrete violation forces it: a
   non-good configuration admits a violating choice (w_1, …, w_k), and
   any good configuration below it must drop w_j from some position j
   — so its children are, for each position j, the replacements of
   position j by a ⊆-maximal candidate subset excluding w_j.  Every
   maximal good configuration M below cfg survives into some child:
   were every position of (an alignment of) M to retain its witness
   label, M would admit the same violating choice.  The collected good
   leaves contain all maximal configurations plus some dominated ones;
   since a strict dominator has strictly larger total cardinality, a
   single descending-cardinality sweep against the already-accepted
   maxima finishes the filter.

   Visited configurations count into [re.enum_nodes] — the same
   budget the bottom-up enumeration used — so kernel comparisons are
   apples-to-apples.

   With [jobs > 1] the descent runs as a breadth-first wave sweep:
   the coordinator keeps the [visited] dedup table and the [shrink]
   memo to itself, and fans each wave's [violating_choice]
   evaluations — the expensive part, all memoized constraint
   queries — out over the pool as independent tasks with
   index-addressed result slots.  The visited closure is the same set
   as the depth-first walk's (the expansion rule per node is
   identical and the closure is order-independent), so
   [re.enum_nodes] is exact; the constraint memo totals are exact
   because {!Constr} holds its memo lock across lookup+compute+store
   while a pool region is open; and the final
   cardinality-sweep-plus-sort below is order-independent, so the
   output is byte-identical to [jobs = 1]. *)
let maximal_good_configs ?(jobs = 1) ~candidates ~arity constr =
  let cands = Array.of_list candidates in
  let k = Array.length cands in
  if k = 0 then []
  else begin
    let idxs = List.init k Fun.id in
    let strictly_below i j =
      i <> j && Bitset.subset cands.(i) cands.(j)
      && not (Bitset.equal cands.(i) cands.(j))
    in
    let maximal_cands =
      List.filter
        (fun i -> not (List.exists (fun j -> strictly_below i j) idxs))
        idxs
    in
    (* shrink.(i) for label l: the ⊆-maximal candidates below candidate
       i that exclude l (computed on demand, once per (i, l)). *)
    let shrink = Array.make k [] in
    let shrink_excluding i l =
      match List.assq_opt l shrink.(i) with
      | Some js -> js
      | None ->
          let below =
            List.filter
              (fun j ->
                (not (Bitset.mem l cands.(j)))
                && Bitset.subset cands.(j) cands.(i))
              idxs
          in
          let js =
            List.filter
              (fun j -> not (List.exists (fun j' -> strictly_below j j') below))
              below
          in
          shrink.(i) <- (l, js) :: shrink.(i);
          js
    in
    let bits = Config_key.bits_for (max 1 k) in
    let key cfg = Config_key.of_multiset ~bits cfg in
    let cfg_sets cfg =
      List.map (fun i -> Bitset.to_list cands.(i)) (Multiset.to_list cfg)
    in
    (* A violating choice of cfg: (position, label) pairs forming a
       {e dead} pick — a multiset no configuration of [constr] extends
       (at full size, deadness is non-membership); [None] means cfg is
       good.  The memoized [for_all_choices] answers the good case.
       The walk returns the first dead partial pick it meets (falling
       back to a full-length pick when every proper prefix stays
       extendable), then greedily minimizes it: dropping any label
       that leaves the pick dead.  Minimal witnesses mean minimal
       branching — a good configuration below cfg must exclude the
       witness label at one of the witness positions only. *)
    let violating_choice cfg =
      let sets = cfg_sets cfg in
      if Constr.for_all_choices sets constr then None
      else
        let dead picked =
          not (Constr.extendable (Multiset.of_list (List.map snd picked)) constr)
        in
        let minimize witness =
          let rec go kept = function
            | [] -> List.rev kept
            | e :: rest ->
                if dead (List.rev_append kept rest) then go kept rest
                else go (e :: kept) rest
          in
          go [] witness
        in
        let rec go j picked = function
          | [] ->
              let m = Multiset.of_list (List.map snd picked) in
              if Constr.mem m constr then None else Some (List.rev picked)
          | s :: rest ->
              if dead picked then Some (List.rev picked)
              else
                let rec first = function
                  | [] -> None
                  | l :: ls -> (
                      match go (j + 1) ((j, l) :: picked) rest with
                      | Some _ as w -> w
                      | None -> first ls)
                in
                first s
        in
        Option.map minimize (go 0 [] sets)
    in
    let visited = Config_key.Tbl.create 256 in
    let frontier = ref [] in
    let nodes = ref 0 in
    (* Children of a non-good cfg under a violating witness: for each
       witness position, the replacements of that position by a
       ⊆-maximal candidate subset excluding the witness label.
       Shared by the depth-first walk and the wave sweep. *)
    let children cfg witness =
      let positions = Multiset.to_list cfg in
      List.concat_map
        (fun (j, w) ->
          let i = List.nth positions j in
          let rest = Multiset.remove i cfg in
          List.map (fun t -> Multiset.add t rest) (shrink_excluding i w))
        witness
    in
    (* First visit of a config: dedup through [visited], count the
       node.  Coordinator-only state in both modes. *)
    let first_visit cfg =
      let kk = key cfg in
      if Config_key.Tbl.mem visited kk then false
      else begin
        Config_key.Tbl.add visited kk ();
        incr nodes;
        true
      end
    in
    let rec visit cfg =
      if first_visit cfg then
        match violating_choice cfg with
        | None -> frontier := cfg :: !frontier
        | Some witness -> List.iter visit (children cfg witness)
    in
    (* Top configurations: all size-[arity] multisets of ⊆-maximal
       candidates (a single one when the universe is a candidate, as
       with right-closed families). *)
    let tops = Array.of_list maximal_cands in
    let m = Array.length tops in
    let top_list = ref [] in
    let rec top_configs start chosen depth =
      if depth = arity then top_list := Multiset.of_list chosen :: !top_list
      else
        for i = start to m - 1 do
          top_configs i (tops.(i) :: chosen) (depth + 1)
        done
    in
    top_configs 0 [] 0;
    if jobs <= 1 then List.iter visit (List.rev !top_list)
    else begin
      (* Wave sweep: the coordinator dedups and expands, the pool
         evaluates each wave's violating choices in parallel.  The
         union of the waves is exactly the depth-first closure. *)
      let wave = ref (List.filter first_visit (List.rev !top_list)) in
      while !wave <> [] do
        let arr = Array.of_list !wave in
        let verdicts =
          Pool.run ~jobs (Array.length arr) (fun i -> violating_choice arr.(i))
        in
        let next = ref [] in
        Array.iteri
          (fun i verdict ->
            match verdict with
            | None -> frontier := arr.(i) :: !frontier
            | Some witness ->
                List.iter
                  (fun child ->
                    if first_visit child then next := child :: !next)
                  (children arr.(i) witness))
          verdicts;
        wave := List.rev !next
      done
    end;
    Telemetry.add c_enum_nodes !nodes;
    let card = Array.map Bitset.cardinal cands in
    let total cfg =
      List.fold_left (fun acc i -> acc + card.(i)) 0 (Multiset.to_list cfg)
    in
    let to_sets cfg = List.map (fun i -> cands.(i)) (Multiset.to_list cfg) in
    let by_total_desc =
      List.sort
        (fun (ta, _, _) (tb, _, _) -> Int.compare tb ta)
        (List.map (fun c -> (total c, c, to_sets c)) !frontier)
    in
    let accepted =
      List.fold_left
        (fun acc (ta, cfg, sets) ->
          if
            List.exists
              (fun (tb, _, sets_b) -> tb > ta && match_up_subset sets sets_b)
              acc
          then acc
          else (ta, cfg, sets) :: acc)
        [] by_total_desc
    in
    (* Ascending-index-sequence order, matching the bottom-up
       enumeration order of the reference kernel. *)
    List.sort
      (fun (_, a, _) (_, b, _) -> Multiset.compare a b)
      accepted
    |> List.map (fun (_, _, sets) -> sets)
  end

(* Single-character member names concatenate unambiguously ("MX");
   otherwise the set is wrapped as ⟨a,b,…⟩ so that nested set names
   from iterated RE steps stay injective. *)
let set_name alphabet s =
  let names = List.map (Alphabet.name alphabet) (Bitset.to_list s) in
  if List.for_all (fun n -> String.length n = 1) names then
    String.concat "" names
  else "\xe2\x9f\xa8" ^ String.concat "," names ^ "\xe2\x9f\xa9"

(* Label sets are bitsets over the alphabet, so R, R̄ and RE are
   defined only up to [Bitset.max_universe] labels. *)
let check_universe ~op (p : Problem.t) =
  let n = Alphabet.size p.Problem.alphabet in
  if n > Bitset.max_universe then
    invalid_arg
      (Printf.sprintf
         "cannot apply %s to %s: it has %d labels, label sets hold at most \
          %d (Bitset.max_universe)"
         op p.Problem.name n Bitset.max_universe)

(* Core of R: maximality on [strong] side, existence on [weak] side.
   [strong_constr] keeps its arity; new labels are the sets appearing
   in the maximal good configurations. *)
let r_core ~jobs ~name ~alphabet ~strong_constr ~weak_constr =
  Telemetry.span "re.step" @@ fun () ->
  Telemetry.incr c_steps;
  let diagram =
    Diagram.of_constraint ~alphabet_size:(Alphabet.size alphabet) strong_constr
  in
  (* Maximal good configurations consist of right-closed sets (any good
     configuration is dominated by its position-wise right closure). *)
  let candidates = Diagram.right_closed_sets diagram in
  let strong_configs =
    maximal_good_configs ~jobs ~candidates ~arity:(Constr.arity strong_constr)
      strong_constr
  in
  if strong_configs = [] then
    invalid_arg "Re_step: empty result constraint (problem is 0-round unsolvable everywhere)";
  let sigma' =
    List.concat strong_configs |> List.sort_uniq Bitset.compare
  in
  let meaning = Array.of_list sigma' in
  let index =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i s -> Hashtbl.add tbl s i) meaning;
    tbl
  in
  let alphabet' = Alphabet.of_names (List.map (set_name alphabet) sigma') in
  let to_config sets =
    Multiset.of_list (List.map (Hashtbl.find index) sets)
  in
  let weak_configs =
    enumerate_set_configs ~candidates:sigma' ~arity:(Constr.arity weak_constr)
      ~partial:(fun cfg ->
        Constr.exists_choice_partial (sets_to_lists cfg) weak_constr)
      ~full:(fun cfg -> Constr.exists_choice (sets_to_lists cfg) weak_constr)
  in
  let strong' =
    Constr.make ~arity:(Constr.arity strong_constr)
      (List.map to_config strong_configs)
  in
  let weak' =
    Constr.make ~arity:(Constr.arity weak_constr)
      (List.map to_config weak_configs)
  in
  Telemetry.set g_labels_out (Array.length meaning);
  Telemetry.set g_strong_configs (List.length strong_configs);
  Telemetry.set g_weak_configs (List.length weak_configs);
  (name, alphabet', strong', weak', meaning)

let r_black_fast ?(jobs = 1) (p : Problem.t) =
  check_universe ~op:"R" p;
  let name, alphabet, black, white, meaning =
    r_core ~jobs ~name:("R(" ^ p.Problem.name ^ ")")
      ~alphabet:p.Problem.alphabet ~strong_constr:p.Problem.black
      ~weak_constr:p.Problem.white
  in
  { problem = Problem.make ~name ~alphabet ~white ~black; meaning }

let r_white_fast ?(jobs = 1) (p : Problem.t) =
  check_universe ~op:"R̄" p;
  let name, alphabet, white, black, meaning =
    r_core ~jobs ~name:("R̄(" ^ p.Problem.name ^ ")")
      ~alphabet:p.Problem.alphabet ~strong_constr:p.Problem.white
      ~weak_constr:p.Problem.black
  in
  { problem = Problem.make ~name ~alphabet ~white ~black; meaning }

let r_black ?(jobs = 1) p =
  match !kernel with
  | Fast -> r_black_fast ~jobs p
  | Reference ->
      let problem, meaning = Re_reference.r_black p in
      { problem; meaning }

let r_white ?(jobs = 1) p =
  match !kernel with
  | Fast -> r_white_fast ~jobs p
  | Reference ->
      let problem, meaning = Re_reference.r_white p in
      { problem; meaning }

(* Cross-invocation RE cache.  Fixed-point checks and sequence
   verification recompute RE on problems just produced by RE; caching
   by structural problem equality makes those reuses free.  Buckets are
   keyed by the renaming-invariant [Problem.canonical_hash], but a hit
   additionally requires structural [Problem.equal] (same alphabet
   names and order): a renamed variant must re-run, because the result
   alphabet is built from the input label names.  The cached value is
   independent of the input problem's own name; the RE(...) name is
   re-applied per call. *)

(* staticcheck: shared-cache-needs-lock cross-invocation RE memo; every access holds result_cache_mu *)
let result_cache : (int, (Problem.t * Problem.t) list) Hashtbl.t =
  Hashtbl.create 64

let result_cache_entries = ref 0 (* staticcheck: shared-cache-needs-lock occupancy count paired with result_cache; same lock *)
let max_result_cache_entries = 512

(* Guards [result_cache]/[result_cache_entries]: [re] is legal from
   inside pool tasks (a batch of REs over a problem pool), and those
   tasks share this one process-wide table.  The lock is never held
   across an RE computation — only across lookup and insertion — so
   two tasks missing on the same problem may both compute it (a
   benign duplicate; both count a miss, last insertion wins). *)
let result_cache_mu = Mutex.create () (* staticcheck: domain-safe result-cache lock; taken around every result_cache access *)

let locked f =
  Mutex.lock result_cache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock result_cache_mu) f

(* Internal eviction (cache full): drops the entries but keeps the
   hit/miss counters accumulating, so mid-run evictions do not hide
   traffic from hit-rate numbers. *)
let evict_all () =
  locked @@ fun () ->
  Hashtbl.reset result_cache;
  result_cache_entries := 0

let clear_cache () =
  evict_all ();
  (* An explicit clear starts a fresh measurement window: hit-rate
     numbers after it must not be polluted by pre-clear traffic.  The
     counters may have accumulated in worker shards (REs run inside
     pool tasks), so the reset must zero every shard — a plain
     [Telemetry.set _ 0] would leave the workers' contributions
     standing and send post-clear delta windows negative. *)
  Telemetry.zero c_cache_hits;
  Telemetry.zero c_cache_misses

let re_fast ?jobs p =
  let step1 = r_black_fast ?jobs p in
  let step2 = r_white_fast ?jobs step1.problem in
  step2.problem

let re ?(cache = true) ?jobs p =
  check_universe ~op:"RE" p;
  let renamed result = Problem.rename result ("RE(" ^ p.Problem.name ^ ")") in
  match !kernel with
  | Reference -> Re_reference.re p
  | Fast when not cache -> renamed (re_fast ?jobs p)
  | Fast ->
      let h = Problem.canonical_hash p in
      let hit =
        locked @@ fun () ->
        let bucket =
          Option.value (Hashtbl.find_opt result_cache h) ~default:[]
        in
        let hit = List.find_opt (fun (q, _) -> Problem.equal q p) bucket in
        (match hit with
        | Some _ -> Telemetry.incr c_cache_hits
        | None -> Telemetry.incr c_cache_misses);
        hit
      in
      (match hit with
      | Some (_, result) -> renamed result
      | None ->
          let result = re_fast ?jobs p in
          (locked @@ fun () ->
           if !result_cache_entries >= max_result_cache_entries then begin
             Hashtbl.reset result_cache;
             result_cache_entries := 0
           end;
           let bucket =
             Option.value (Hashtbl.find_opt result_cache h) ~default:[]
           in
           Hashtbl.replace result_cache h ((p, result) :: bucket);
           incr result_cache_entries);
          renamed result)

let is_fixed_point p = Problem.equal_up_to_renaming (re p) p
