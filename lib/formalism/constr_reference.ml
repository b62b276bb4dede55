module Multiset = Slocal_util.Multiset

(* Every query answers directly from the configuration list of the
   constraint: no hash tables, no cached down-closures.  Kept
   deliberately naive — the differential property suite compares the
   fast kernel against these semantics. *)

let mem c t = List.exists (Multiset.equal c) (Constr.configs t)

let extendable partial t =
  Multiset.size partial <= Constr.arity t
  && List.exists (fun cfg -> Multiset.subset partial cfg) (Constr.configs t)

let pick_walk ~combine ~complete sets =
  let rec go acc = function
    | [] -> complete acc
    | set :: rest -> combine (fun l -> go (Multiset.add l acc) rest) set
  in
  go Multiset.empty sets

let exists_choice sets t =
  if List.length sets <> Constr.arity t then
    invalid_arg "Constr_reference.exists_choice: arity mismatch";
  pick_walk ~combine:(fun f s -> List.exists f s)
    ~complete:(fun acc -> mem acc t)
    sets

let for_all_choices sets t =
  if List.length sets <> Constr.arity t then
    invalid_arg "Constr_reference.for_all_choices: arity mismatch";
  pick_walk ~combine:(fun f s -> List.for_all f s)
    ~complete:(fun acc -> mem acc t)
    sets

let exists_choice_partial sets t =
  if List.length sets > Constr.arity t then
    invalid_arg "Constr_reference.exists_choice_partial";
  pick_walk ~combine:(fun f s -> List.exists f s)
    ~complete:(fun acc -> extendable acc t)
    sets

let for_all_choices_partial sets t =
  if List.length sets > Constr.arity t then
    invalid_arg "Constr_reference.for_all_choices_partial";
  pick_walk ~combine:(fun f s -> List.for_all f s)
    ~complete:(fun acc -> extendable acc t)
    sets
