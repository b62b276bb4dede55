open Slocal_formalism
module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat
module Telemetry = Slocal_obs.Telemetry

let c_lifts = Telemetry.counter "lift.calls"

type t = {
  base : Problem.t;
  problem : Problem.t;
  meaning : Bitset.t array;
  delta : int;
  r : int;
}

(* Distinct sub-multisets of size k of a list of label-sets. *)
let sub_multisets_of_sets k sets =
  Combinat.subsets_of_size k (List.mapi (fun i s -> (i, s)) sets)
  |> List.map (fun chosen -> List.map snd chosen)
  |> List.sort_uniq compare

let lift ~delta ~r (base : Problem.t) =
  Telemetry.span "lift.lift" @@ fun () ->
  Telemetry.incr c_lifts;
  let d' = Problem.d_white base and r' = Problem.d_black base in
  if delta < d' then invalid_arg "Lift.lift: delta < white arity of base";
  if r < r' then invalid_arg "Lift.lift: r < black arity of base";
  let diagram = Diagram.black base in
  let candidates = Diagram.right_closed_sets diagram in
  let to_lists config = List.map Bitset.to_list config in
  (* Black side: every r'-subset, every choice, in C_B. *)
  let black_full config =
    List.for_all
      (fun sub -> Constr.for_all_choices (to_lists sub) base.Problem.black)
      (sub_multisets_of_sets r' config)
  in
  let black_partial config =
    let m = List.length config in
    if m >= r' then
      List.for_all
        (fun sub -> Constr.for_all_choices (to_lists sub) base.Problem.black)
        (sub_multisets_of_sets r' config)
    else Constr.for_all_choices_partial (to_lists config) base.Problem.black
  in
  (* White side: every Δ'-subset admits some choice in C_W. *)
  let white_full config =
    List.for_all
      (fun sub -> Constr.exists_choice (to_lists sub) base.Problem.white)
      (sub_multisets_of_sets d' config)
  in
  let white_partial config =
    let m = List.length config in
    if m >= d' then
      List.for_all
        (fun sub -> Constr.exists_choice (to_lists sub) base.Problem.white)
        (sub_multisets_of_sets d' config)
    else Constr.exists_choice_partial (to_lists config) base.Problem.white
  in
  let black_configs =
    Re_step.enumerate_set_configs ~candidates ~arity:r ~partial:black_partial
      ~full:black_full
  in
  let white_configs =
    Re_step.enumerate_set_configs ~candidates ~arity:delta
      ~partial:white_partial ~full:white_full
  in
  let meaning = Array.of_list candidates in
  let index =
    let tbl = Hashtbl.create 32 in
    Array.iteri (fun i s -> Hashtbl.add tbl s i) meaning;
    tbl
  in
  let alphabet =
    Alphabet.of_names
      (List.map (Re_step.set_name base.Problem.alphabet) candidates)
  in
  let to_config sets = Multiset.of_list (List.map (Hashtbl.find index) sets) in
  let problem =
    Problem.make
      ~name:(Printf.sprintf "lift_%d,%d(%s)" delta r base.Problem.name)
      ~alphabet
      ~white:(Constr.make ~arity:delta (List.map to_config white_configs))
      ~black:(Constr.make ~arity:r (List.map to_config black_configs))
  in
  { base; problem; meaning; delta; r }

let label_of_set t set =
  let found = ref None in
  Array.iteri
    (fun i s -> if Bitset.equal s set && !found = None then found := Some i)
    t.meaning;
  !found
