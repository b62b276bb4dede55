(* The relaxation search before name-guided value order, the
   incremental black check and the undo trail, kept as a differential
   oracle for [Relaxation.search] (see [test_proptest.ml]).  Verbatim
   apart from [search] also returning its node count (one node per
   [go] call, the same accounting as [relaxation.nodes]). *)

open Slocal_formalism
module Multiset = Slocal_util.Multiset
module Bitset = Slocal_util.Bitset
module Combinat = Slocal_util.Combinat

exception Budget_exceeded

(* Candidate images for a white configuration [c] of [src]: ordered
   tuples over Σ_dst whose multiset is in C_W(dst), deduplicated by
   their contribution to [r] (the multiset of (source label, image)
   pairs), since only that matters. *)
let candidate_images (dst : Problem.t) c =
  let positions = Multiset.to_list c in
  let tuples =
    List.concat_map
      (fun img -> Combinat.permutations (Multiset.to_list img))
      (Constr.configs dst.Problem.white)
  in
  let contribution tuple = List.sort compare (List.combine positions tuple) in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun tuple ->
      let key = contribution tuple in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    tuples

let search ?(max_nodes = 2_000_000) (src : Problem.t) (dst : Problem.t) =
  let nodes = ref 0 in
  let verdict =
  (* Mismatched arities make a relaxation impossible — a decided
     negative, not a budget failure. *)
  if Constr.arity src.Problem.white <> Constr.arity dst.Problem.white then
    Some None
  else if Constr.arity src.Problem.black <> Constr.arity dst.Problem.black then
    Some None
  else begin
    let white_configs = Constr.configs src.Problem.white in
    let candidates = List.map (candidate_images dst) white_configs in
    let n_src = Alphabet.size src.Problem.alphabet in
    let r = Array.make n_src Bitset.empty in
    let black_ok () =
      List.for_all
        (fun c ->
          let sets = List.map (fun l -> Bitset.to_list r.(l)) (Multiset.to_list c) in
          Constr.for_all_choices sets dst.Problem.black)
        (Constr.configs src.Problem.black)
    in
    let assignment = Array.make (List.length white_configs) [] in
    let rec go i cfgs cands =
      incr nodes;
      if !nodes > max_nodes then raise Budget_exceeded;
      match (cfgs, cands) with
      | [], [] -> true
      | cfg :: cfgs', cand :: cands' ->
          List.exists
            (fun tuple ->
              let saved = Array.copy r in
              List.iter2
                (fun l m -> r.(l) <- Bitset.add m r.(l))
                (Multiset.to_list cfg) tuple;
              let ok = black_ok () && go (i + 1) cfgs' cands' in
              if ok then assignment.(i) <- tuple
              else Array.blit saved 0 r 0 n_src;
              ok)
            cand
      | _ -> assert false
    in
    match go 0 white_configs candidates with
    | true ->
        Some
          (Some (List.mapi (fun i c -> (c, assignment.(i))) white_configs))
    | false -> Some None
    | exception Budget_exceeded -> None
  end
  in
  (verdict, !nodes)
