module Multiset = Slocal_util.Multiset
module Config_key = Slocal_util.Config_key

module Config_set = Set.Make (struct
  type t = Multiset.t

  let compare = Multiset.compare
end)

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
   accumulated partial multiset is pruned through [extendable]. *)

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
  exists_pick ~complete:(fun acc -> mem acc t) sets t

let for_all_choices sets t =
  if List.length sets <> t.arity then invalid_arg "Constr.for_all_choices: arity mismatch";
  (* A partial pick that is not extendable witnesses a violating full
     pick (any completion of it), so the universal test may
     short-circuit on it — but only when a completion exists.  An
     empty position set makes the product empty and the test
     vacuously true, answered before the walk (which could otherwise
     short-circuit on an earlier position). *)
  List.mem [] sets || for_all_pick ~complete:(fun acc -> mem acc t) sets t

let exists_choice_partial sets t =
  if List.length sets > t.arity then invalid_arg "Constr.exists_choice_partial";
  exists_pick ~complete:(fun acc -> extendable acc t) sets t

let for_all_choices_partial sets t =
  if List.length sets > t.arity then invalid_arg "Constr.for_all_choices_partial";
  List.mem [] sets
  || for_all_pick ~complete:(fun acc -> extendable acc t) sets t

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
