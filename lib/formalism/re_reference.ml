module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset
module Telemetry = Slocal_obs.Telemetry

(* Shared with the fast kernel (Telemetry interns by name), so kernel
   comparisons read the same counters whichever implementation ran. *)
let c_steps = Telemetry.counter "re.steps"
let c_enum_nodes = Telemetry.counter "re.enum_nodes"

(* Bottom-up enumeration of multisets of size [arity] over [candidates]
   (non-decreasing indices), pruning prefixes via [partial]. *)
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

(* config [a] is dominated by [b]: a ≠ b and some alignment has
   a_i ⊆ b_{φ(i)} for all i. *)
let dominated a b =
  a <> b
  &&
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

(* Quadratic filter: keep the configs not dominated by any other good
   config.  Queries go through [Constr] (as in the seed, whose queries
   pruned through down-closures): what this module preserves is the
   bottom-up enumeration and the pairwise domination filter, and
   [Constr] itself is differentially tested against
   [Constr_reference]. *)
let maximal_good_configs ~candidates ~arity constr =
  let good =
    enumerate_set_configs ~candidates ~arity
      ~partial:(fun cfg ->
        Constr.for_all_choices_partial (sets_to_lists cfg) constr)
      ~full:(fun cfg -> Constr.for_all_choices (sets_to_lists cfg) constr)
  in
  List.filter (fun a -> not (List.exists (fun b -> dominated a b) good)) good

let set_name alphabet s =
  let names = List.map (Alphabet.name alphabet) (Bitset.to_list s) in
  if List.for_all (fun n -> String.length n = 1) names then
    String.concat "" names
  else "\xe2\x9f\xa8" ^ String.concat "," names ^ "\xe2\x9f\xa9"

let r_core ~name ~alphabet ~strong_constr ~weak_constr =
  Telemetry.span "re.step" @@ fun () ->
  Telemetry.incr c_steps;
  let diagram =
    Diagram.of_constraint ~alphabet_size:(Alphabet.size alphabet) strong_constr
  in
  let candidates = Diagram.right_closed_sets diagram in
  let strong_configs =
    maximal_good_configs ~candidates ~arity:(Constr.arity strong_constr)
      strong_constr
  in
  if strong_configs = [] then
    invalid_arg
      "Re_step: empty result constraint (problem is 0-round unsolvable everywhere)";
  let sigma' = List.concat strong_configs |> List.sort_uniq Bitset.compare in
  let meaning = Array.of_list sigma' in
  let index =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i s -> Hashtbl.add tbl s i) meaning;
    tbl
  in
  let alphabet' = Alphabet.of_names (List.map (set_name alphabet) sigma') in
  let to_config sets = Multiset.of_list (List.map (Hashtbl.find index) sets) in
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
  (name, alphabet', strong', weak', meaning)

let r_black (p : Problem.t) =
  let name, alphabet, black, white, meaning =
    r_core ~name:("R(" ^ p.Problem.name ^ ")") ~alphabet:p.Problem.alphabet
      ~strong_constr:p.Problem.black ~weak_constr:p.Problem.white
  in
  ((Problem.make ~name ~alphabet ~white ~black), meaning)

let r_white (p : Problem.t) =
  let name, alphabet, white, black, meaning =
    r_core ~name:("R̄(" ^ p.Problem.name ^ ")") ~alphabet:p.Problem.alphabet
      ~strong_constr:p.Problem.white ~weak_constr:p.Problem.black
  in
  ((Problem.make ~name ~alphabet ~white ~black), meaning)

let re p =
  let step1, _ = r_black p in
  let step2, _ = r_white step1 in
  Problem.rename step2 ("RE(" ^ p.Problem.name ^ ")")
