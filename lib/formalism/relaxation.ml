module Multiset = Slocal_util.Multiset
module Bitset = Slocal_util.Bitset
module Combinat = Slocal_util.Combinat
module Telemetry = Slocal_obs.Telemetry

let check_label_map ~f (src : Problem.t) (dst : Problem.t) =
  let whites_ok =
    List.for_all
      (fun c -> Constr.mem (Multiset.map f c) dst.Problem.white)
      (Constr.configs src.Problem.white)
  in
  whites_ok
  && begin
       (* r(ℓ) = {f ℓ} for labels used in some white configuration of
          src, and ∅ otherwise (making those black choices vacuous). *)
       let used =
         List.fold_left
           (fun acc c ->
             List.fold_left (fun acc l -> Bitset.add l acc) acc (Multiset.support c))
           Bitset.empty
           (Constr.configs src.Problem.white)
       in
       List.for_all
         (fun c ->
           let sets =
             List.map
               (fun l -> if Bitset.mem l used then [ f l ] else [])
               (Multiset.to_list c)
           in
           Constr.for_all_choices sets dst.Problem.black)
         (Constr.configs src.Problem.black)
     end

let c_nodes = Telemetry.counter "relaxation.nodes"

exception Budget_exceeded

(* Candidate images for a white configuration [c] of [src]: ordered
   tuples over Σ_dst whose multiset is in C_W(dst), deduplicated by
   their contribution to [r] (the multiset of (source label, image)
   pairs), since only that matters.  The name-preserving tuple (each
   source label mapped to the same-named label of [dst]), when it is a
   candidate, is tried first: along a sequence whose problems share
   label names it is usually a witness, and the order cannot change the
   verdict or a refutation's node count (a refutation explores every
   consistent prefix whatever the order). *)
let candidate_images (src : Problem.t) (dst : Problem.t) c =
  let positions = Multiset.to_list c in
  let tuples =
    List.concat_map
      (fun img -> Combinat.permutations (Multiset.to_list img))
      (Constr.configs dst.Problem.white)
  in
  let contribution tuple = List.sort compare (List.combine positions tuple) in
  let seen = Hashtbl.create 64 in
  let cands =
    List.filter
      (fun tuple ->
        let key = contribution tuple in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      tuples
  in
  let same_name l =
    Alphabet.find dst.Problem.alphabet (Alphabet.name src.Problem.alphabet l)
  in
  match List.filter_map same_name positions with
  | named
    when List.length named = List.length positions && List.mem named cands ->
      named :: List.filter (fun t -> t <> named) cands
  | _ -> cands

let search ?(max_nodes = 2_000_000) (src : Problem.t) (dst : Problem.t) =
  Telemetry.span "relaxation.search" @@ fun () ->
  (* The images [r(ℓ)] are label sets over [dst]. *)
  Re_step.check_universe ~op:"a relaxation search" dst;
  (* Mismatched arities make a relaxation impossible — a decided
     negative, not a budget failure. *)
  if Constr.arity src.Problem.white <> Constr.arity dst.Problem.white then
    Some None
  else if Constr.arity src.Problem.black <> Constr.arity dst.Problem.black then
    Some None
  else begin
    let white_configs = Constr.configs src.Problem.white in
    let candidates = List.map (candidate_images src dst) white_configs in
    let n_src = Alphabet.size src.Problem.alphabet in
    let r = Array.make n_src Bitset.empty in
    (* The black configurations of [src], indexed by the labels they
       contain.  [r] only grows along a branch, so after a tuple is
       applied only the configurations containing a label whose [r]
       grew can have started to fail; [stamp] makes each of them
       rechecked once per application. *)
    let blacks = Array.of_list (Constr.configs src.Problem.black) in
    let containing = Array.make n_src [] in
    Array.iteri
      (fun j c ->
        List.iter
          (fun l -> containing.(l) <- j :: containing.(l))
          (Multiset.support c))
      blacks;
    let stamp = Array.make (Array.length blacks) 0 in
    let epoch = ref 0 in
    let black_ok j =
      let c = Multiset.to_list blacks.(j) in
      (* An empty r(ℓ) empties the product of choices: vacuously fine. *)
      List.exists (fun l -> Bitset.is_empty r.(l)) c
      || Constr.for_all_choices
           (List.map (fun l -> Bitset.to_list r.(l)) c)
           dst.Problem.black
    in
    let recheck grown =
      incr epoch;
      List.for_all
        (fun (l, _) ->
          List.for_all
            (fun j ->
              stamp.(j) = !epoch
              || begin
                   stamp.(j) <- !epoch;
                   black_ok j
                 end)
            containing.(l))
        grown
    in
    let nodes = ref 0 in
    let assignment = Array.make (List.length white_configs) [] in
    let rec go i cfgs cands =
      incr nodes;
      if !nodes > max_nodes then raise Budget_exceeded;
      match (cfgs, cands) with
      | [], [] -> true
      | cfg :: cfgs', cand :: cands' ->
          List.exists
            (fun tuple ->
              (* The undo trail: (label, previous r) for each growth,
                 newest first. *)
              let trail =
                List.fold_left2
                  (fun trail l m ->
                    if Bitset.mem m r.(l) then trail
                    else begin
                      let old = r.(l) in
                      r.(l) <- Bitset.add m old;
                      (l, old) :: trail
                    end)
                  [] (Multiset.to_list cfg) tuple
              in
              let ok = recheck trail && go (i + 1) cfgs' cands' in
              if ok then assignment.(i) <- tuple
              else List.iter (fun (l, old) -> r.(l) <- old) trail;
              ok)
            cand
      | _ -> assert false
    in
    let result =
      match go 0 white_configs candidates with
      | true ->
          Some
            (Some (List.mapi (fun i c -> (c, assignment.(i))) white_configs))
      | false -> Some None
      | exception Budget_exceeded -> None
    in
    Telemetry.add c_nodes !nodes;
    result
  end

let exists ?max_nodes src dst =
  match search ?max_nodes src dst with
  | None -> None
  | Some (Some _) -> Some true
  | Some None -> Some false

let witness ?max_nodes src dst =
  match search ?max_nodes src dst with
  | None -> None
  | Some w -> w
