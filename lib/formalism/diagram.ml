module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset

type t = {
  size : int;
  reach : Bitset.t array; (* reach.(y) = labels at least as strong as y, incl. y *)
}

(* Direct strength test from the definition: every configuration
   containing y stays in C under replacing any positive number of
   copies of y by x.  [with_y] lists exactly the configurations that
   contain y. *)
let directly_stronger constr ~with_y x y =
  x = y
  || List.for_all
       (fun cfg ->
         let current = ref cfg in
         let ok = ref true in
         for _ = 1 to Multiset.count y cfg do
           current := Multiset.add x (Multiset.remove y !current);
           if not (Constr.mem !current constr) then ok := false
         done;
         !ok)
       with_y

let of_constraint ~alphabet_size constr =
  let n = alphabet_size in
  (* containing.(y): the configurations that contain y, built in one
     pass so each of the n² pair tests scans only those. *)
  let containing = Array.make n [] in
  List.iter
    (fun cfg ->
      List.iter
        (fun y -> if y < n then containing.(y) <- cfg :: containing.(y))
        (Multiset.support cfg))
    (Constr.configs constr);
  let rel = Array.make_matrix n n false in
  for y = 0 to n - 1 do
    for x = 0 to n - 1 do
      rel.(y).(x) <- directly_stronger constr ~with_y:containing.(y) x y
    done
  done;
  (* The relation is transitive by a replacement argument, but we take
     the transitive closure anyway so that [reach] is reachability even
     if a degenerate constraint breaks the argument. *)
  for k = 0 to n - 1 do
    for y = 0 to n - 1 do
      if rel.(y).(k) then
        for x = 0 to n - 1 do
          if rel.(k).(x) then rel.(y).(x) <- true
        done
    done
  done;
  let reach =
    Array.init n (fun y ->
        let s = ref (Bitset.singleton y) in
        for x = 0 to n - 1 do
          if rel.(y).(x) then s := Bitset.add x !s
        done;
        !s)
  in
  { size = n; reach }

let black p =
  of_constraint ~alphabet_size:(Alphabet.size p.Problem.alphabet) p.Problem.black

let white p =
  of_constraint ~alphabet_size:(Alphabet.size p.Problem.alphabet) p.Problem.white

let stronger d x y = Bitset.mem x d.reach.(y)

let all_edges d =
  let acc = ref [] in
  for y = d.size - 1 downto 0 do
    List.iter
      (fun x -> if x <> y then acc := (y, x) :: !acc)
      (List.rev (Bitset.to_list d.reach.(y)))
  done;
  !acc

(* Drop edge (y, x) when some intermediate z gives y -> z -> x; in the
   presence of strength-equivalent labels keep a representative edge. *)
let edges d =
  List.filter
    (fun (y, x) ->
      let equivalent a b = stronger d a b && stronger d b a in
      if equivalent y x then
        (* Keep only the orientation from the smaller label. *)
        y < x
      else
        not
          (List.exists
             (fun z ->
               z <> x && z <> y
               && (not (equivalent z x))
               && (not (equivalent z y))
               && stronger d z y && stronger d x z)
             (List.init d.size (fun i -> i))))
    (all_edges d)

let is_right_closed d s =
  Bitset.for_all (fun l -> Bitset.subset d.reach.(l) s) s

let right_closure d s =
  Bitset.fold (fun l acc -> Bitset.union d.reach.(l) acc) s Bitset.empty

(* The nonempty right-closed sets are exactly the nonempty unions of
   [reach] sets: [reach] is transitively closed, so unions of its sets
   are right-closed, and a right-closed [s] is the union of the reaches
   of its members.  Enumerating the union-closure family directly costs
   O(output × generators) instead of filtering all 2^n subsets. *)
let right_closed_sets d =
  let generators =
    Array.to_list d.reach |> List.sort_uniq Bitset.compare
  in
  let seen = Hashtbl.create 64 in
  Hashtbl.add seen Bitset.empty ();
  let family = ref [ Bitset.empty ] in
  List.iter
    (fun g ->
      List.iter
        (fun f ->
          let u = Bitset.union f g in
          if not (Hashtbl.mem seen u) then begin
            Hashtbl.add seen u ();
            family := u :: !family
          end)
        !family)
    generators;
  List.filter (fun s -> not (Bitset.is_empty s)) !family
  |> List.sort (fun a b ->
         compare
           (Bitset.cardinal a, Bitset.to_list a)
           (Bitset.cardinal b, Bitset.to_list b))

let pp alphabet fmt d =
  let pp_edge fmt (y, x) =
    Format.fprintf fmt "%s -> %s" (Alphabet.name alphabet y)
      (Alphabet.name alphabet x)
  in
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_newline fmt ())
    pp_edge fmt (edges d)
