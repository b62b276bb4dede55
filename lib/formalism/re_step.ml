module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset
module Config_key = Slocal_util.Config_key
module Telemetry = Slocal_obs.Telemetry

type grounding = {
  problem : Problem.t;
  meaning : Bitset.t array;
}

let c_steps = Telemetry.counter "re.steps"
let c_enum_nodes = Telemetry.counter "re.enum_nodes"
let c_cache_hits = Telemetry.counter "re.cache_hits"
let c_cache_misses = Telemetry.counter "re.cache_misses"

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
   apples-to-apples. *)
let maximal_good_configs ~candidates ~arity constr =
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
    (* [good s r]: every pick from the candidates at positions [r]
       completes the partial pick [s] (a label multiset) to a
       configuration of [constr] — no pick below [s] is dead.  [r] is a
       tail of a node's sorted index list, shared rather than built.
       Answers are memoized for this search only: a child replaces one
       position by a strict subset of its candidate, which sorts no
       later in [Diagram.right_closed_sets]' ascending-cardinality
       order, so the tails behind that position recur, with the same
       label prefixes, across neighbouring nodes.  The last position is
       a handful of membership probes and is not stored.  The key is
       [s]'s labels followed by [r]'s indices shifted past every label:
       an ascending sequence of [arity] numbers, packed into one int
       when it fits. *)
    let n_labels =
      List.fold_left
        (fun acc c -> Bitset.fold (fun l acc -> max acc (l + 1)) c acc)
        0 candidates
    in
    let memo_bits = Config_key.bits_for (n_labels + k) in
    let packed = 1 + (arity * memo_bits) <= 62 in
    let memo_key s r =
      if packed then
        let shift acc x = (acc lsl memo_bits) lor x in
        Config_key.Packed
          (List.fold_left
             (fun acc i -> shift acc (n_labels + i))
             (List.fold_left shift 1 (Multiset.to_list s))
             r)
      else Config_key.Wide (Multiset.to_list s @ List.map (( + ) n_labels) r)
    in
    let memo = Config_key.Tbl.create 16 in
    let rec good s r =
      match r with
      | [] -> Constr.mem s constr
      | [ i ] ->
          Bitset.for_all (fun l -> Constr.mem (Multiset.add l s) constr) cands.(i)
      | i :: rest -> (
          let kk = memo_key s r in
          match Config_key.Tbl.find_opt memo kk with
          | Some b -> b
          | None ->
              let b =
                Bitset.for_all
                  (fun l ->
                    let s' = Multiset.add l s in
                    Constr.extendable s' constr && good s' rest)
                  cands.(i)
              in
              Config_key.Tbl.add memo kk b;
              b)
    in
    (* A violating choice of cfg: (position, label) pairs forming a
       {e dead} pick — a multiset no configuration of [constr] extends
       (at full size, deadness is non-membership); [None] means cfg is
       good (vacuously so when a position holds the empty set).
       The walk returns the first dead partial pick it meets in DFS
       order (falling back to a full-length pick when every proper
       prefix stays extendable), skipping every subtree that [good]
       clears, then greedily minimizes it: dropping any label that
       leaves the pick dead.  Minimal witnesses mean minimal branching
       — a good configuration below cfg must exclude the witness label
       at one of the witness positions only. *)
    let violating_choice cfg =
      let positions = Multiset.to_list cfg in
      if
        List.exists (fun i -> Bitset.is_empty cands.(i)) positions
        || good Multiset.empty positions
      then None
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
        let rec go j picked s = function
          | [] -> if Constr.mem s constr then None else Some (List.rev picked)
          | i :: rest as r ->
              if not (Constr.extendable s constr) then Some (List.rev picked)
              else if good s r then None
              else
                let rec first = function
                  | [] -> None
                  | l :: ls -> (
                      match go (j + 1) ((j, l) :: picked) (Multiset.add l s) rest with
                      | Some _ as w -> w
                      | None -> first ls)
                in
                first (Bitset.to_list cands.(i))
        in
        Option.map minimize (go 0 [] Multiset.empty positions)
    in
    let visited = Config_key.Tbl.create 256 in
    let frontier = ref [] in
    let nodes = ref 0 in
    (* Children of a non-good cfg under a violating witness: for each
       witness position, the replacements of that position by a
       ⊆-maximal candidate subset excluding the witness label. *)
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
       node, expand it. *)
    let rec visit cfg =
      let kk = key cfg in
      if not (Config_key.Tbl.mem visited kk) then begin
        Config_key.Tbl.add visited kk ();
        incr nodes;
        match violating_choice cfg with
        | None -> frontier := cfg :: !frontier
        | Some witness -> List.iter visit (children cfg witness)
      end
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
    List.iter visit (List.rev !top_list);
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

(* Label sets are bitsets over the alphabet, so R, R̄, RE and the
   relaxation search are defined only up to [Bitset.max_universe]
   labels. *)
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
let r_core ~name ~alphabet ~strong_constr ~weak_constr =
  Telemetry.span "re.step" @@ fun () ->
  Telemetry.incr c_steps;
  let diagram =
    Diagram.of_constraint ~alphabet_size:(Alphabet.size alphabet) strong_constr
  in
  (* Maximal good configurations consist of right-closed sets (any good
     configuration is dominated by its position-wise right closure). *)
  let candidates = Diagram.right_closed_sets diagram in
  let strong_configs =
    Telemetry.span "re.strong" @@ fun () ->
    maximal_good_configs ~candidates ~arity:(Constr.arity strong_constr)
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
    Telemetry.span "re.weak" @@ fun () ->
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
  (name, alphabet', strong', weak', meaning)

let r_black (p : Problem.t) =
  check_universe ~op:"R" p;
  let name, alphabet, black, white, meaning =
    r_core ~name:("R(" ^ p.Problem.name ^ ")")
      ~alphabet:p.Problem.alphabet ~strong_constr:p.Problem.black
      ~weak_constr:p.Problem.white
  in
  { problem = Problem.make ~name ~alphabet ~white ~black; meaning }

let r_white (p : Problem.t) =
  check_universe ~op:"R̄" p;
  let name, alphabet, white, black, meaning =
    r_core ~name:("R̄(" ^ p.Problem.name ^ ")")
      ~alphabet:p.Problem.alphabet ~strong_constr:p.Problem.white
      ~weak_constr:p.Problem.black
  in
  { problem = Problem.make ~name ~alphabet ~white ~black; meaning }

(* Cross-invocation RE cache.  Fixed-point checks and sequence
   verification recompute RE on problems just produced by RE; caching
   by structural problem equality makes those reuses free.  Buckets are
   keyed by the renaming-invariant [Problem.canonical_hash], but a hit
   additionally requires structural [Problem.equal] (same alphabet
   names and order): a renamed variant must re-run, because the result
   alphabet is built from the input label names.  The cached value is
   independent of the input problem's own name; the RE(...) name is
   re-applied per call. *)

let result_cache : (int, (Problem.t * Problem.t) list) Hashtbl.t =
  Hashtbl.create 64

let result_cache_entries = ref 0
let max_result_cache_entries = 512

(* Guards [result_cache]/[result_cache_entries]: [re] is legal from
   inside pool tasks (a batch of REs over a problem pool), and those
   tasks share this one process-wide table.  The lock is never held
   across an RE computation — only across lookup and insertion — so
   two tasks missing on the same problem may both compute it (a
   benign duplicate; both count a miss, last insertion wins). *)
let result_cache_mu = Mutex.create ()

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
     numbers after it must not be polluted by pre-clear traffic.  Pool
     workers' counts are absorbed into the caller's store at the join,
     so zeroing it clears them too. *)
  Telemetry.set c_cache_hits 0;
  Telemetry.set c_cache_misses 0

let re_fast p =
  let step1 = r_black p in
  let step2 = r_white step1.problem in
  step2.problem

let re ?(cache = true) p =
  check_universe ~op:"RE" p;
  let renamed result = Problem.rename result ("RE(" ^ p.Problem.name ^ ")") in
  if not cache then renamed (re_fast p)
  else
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
    match hit with
    | Some (_, result) -> renamed result
    | None ->
        let result = re_fast p in
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
        renamed result

let is_fixed_point p = Problem.equal_up_to_renaming (re p) p
