open Slocal_graph
open Slocal_formalism
module Multiset = Slocal_util.Multiset

let set_name colors = "C" ^ String.concat "" (List.map string_of_int colors)

(* Non-empty subsets of {1..c}, ordered by bitmask. *)
let color_subsets c =
  List.init ((1 lsl c) - 1) (fun i ->
      let mask = i + 1 in
      List.filter (fun col -> (mask lsr (col - 1)) land 1 = 1)
        (List.init c (fun j -> j + 1)))

let pi ~delta ~c =
  if c < 1 || c > 9 then invalid_arg "Coloring_family.pi: need 1 <= c <= 9";
  if delta < 1 then invalid_arg "Coloring_family.pi: need Δ >= 1";
  let subsets = color_subsets c in
  let labels = "X" :: List.map set_name subsets in
  let alphabet = Alphabet.of_names labels in
  let x_label = 0 in
  let label_of_subset =
    let tbl = Hashtbl.create 32 in
    List.iteri (fun i s -> Hashtbl.add tbl s (i + 1)) subsets;
    Hashtbl.find tbl
  in
  (* Color sets with |C| - 1 > Δ admit no configuration of size Δ; the
     label ℓ(C) still exists (it may appear inside lift label-sets) but
     contributes nothing to the white constraint. *)
  let white_configs =
    List.filter_map
      (fun s ->
        let x = List.length s - 1 in
        if x > delta then None
        else
          Some
            (Multiset.of_list
               (Multiset.to_list
                  (Multiset.replicate (delta - x) (label_of_subset s))
               @ Multiset.to_list (Multiset.replicate x x_label))))
      subsets
  in
  let disjoint s1 s2 = List.for_all (fun col -> not (List.mem col s2)) s1 in
  let black_configs =
    let pairs =
      List.concat_map
        (fun s1 ->
          List.filter_map
            (fun s2 ->
              if disjoint s1 s2 then
                Some (Multiset.of_list [ label_of_subset s1; label_of_subset s2 ])
              else None)
            subsets)
        subsets
    in
    let with_x =
      List.init (List.length labels) (fun l -> Multiset.of_list [ x_label; l ])
    in
    List.sort_uniq Multiset.compare (pairs @ with_x)
  in
  Problem.make
    ~name:(Printf.sprintf "pi_%d(%d)" delta c)
    ~alphabet
    ~white:(Constr.make ~arity:delta white_configs)
    ~black:(Constr.make ~arity:2 black_configs)

let label_x (p : Problem.t) = Alphabet.find_exn p.Problem.alphabet "X"

let color_set_label (p : Problem.t) colors =
  Alphabet.find_exn p.Problem.alphabet (set_name colors)

let color_set_of_label (p : Problem.t) l =
  let name = Alphabet.name p.Problem.alphabet l in
  if name = "X" then None
  else if String.length name > 1 && name.[0] = 'C' then
    Some
      (List.init
         (String.length name - 1)
         (fun i -> Char.code name.[i + 1] - Char.code '0'))
  else None

let is_arbdefective_coloring g ~alpha ~c ~colors ~orientation =
  Array.length colors = Graph.n g
  && Array.for_all (fun col -> col >= 0 && col < c) colors
  && begin
       let mono e =
         let u, v = Graph.edge g e in
         colors.(u) = colors.(v)
       in
       let oriented = Hashtbl.create 16 in
       let ok = ref true in
       List.iter
         (fun (e, head) ->
           if e < 0 || e >= Graph.m g then ok := false
           else begin
             let u, v = Graph.edge g e in
             if head <> u && head <> v then ok := false;
             if not (mono e) then ok := false;
             if Hashtbl.mem oriented e then ok := false;
             Hashtbl.add oriented e head
           end)
         orientation;
       (* Every monochromatic edge must be oriented. *)
       for e = 0 to Graph.m g - 1 do
         if mono e && not (Hashtbl.mem oriented e) then ok := false
       done;
       (* Out-degree (tail side) bounded by alpha. *)
       let outdeg = Array.make (Graph.n g) 0 in
       Hashtbl.iter
         (fun e head ->
           let u, v = Graph.edge g e in
           let tail = if head = u then v else u in
           outdeg.(tail) <- outdeg.(tail) + 1)
         oriented;
       Array.iter (fun d -> if d > alpha then ok := false) outdeg;
       !ok
     end

let pi_solution_of_arbdefective g ~alpha ~c ~colors ~orientation =
  if not (is_arbdefective_coloring g ~alpha ~c ~colors ~orientation) then
    invalid_arg "pi_solution_of_arbdefective: invalid input coloring";
  let delta = Graph.max_degree g in
  if alpha > delta then invalid_arg "pi_solution_of_arbdefective: alpha > Δ";
  let k = (alpha + 1) * c in
  let problem = pi ~delta ~c:k in
  (* Block of (α+1) colors of Π for graph color q (0-based): these
     blocks are pairwise disjoint, so differently-colored neighbours
     automatically satisfy the disjointness constraint. *)
  let block q = List.init (alpha + 1) (fun j -> (q * (alpha + 1)) + j + 1) in
  let x = label_x problem in
  let is_x = Hashtbl.create 64 in
  List.iter
    (fun (e, head) ->
      let u, v = Graph.edge g e in
      let tail = if head = u then v else u in
      Hashtbl.replace is_x (tail, e) ())
    orientation;
  (* Pad degree-Δ nodes to exactly alpha X's. *)
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v = delta then begin
      let current =
        List.length
          (List.filter (fun e -> Hashtbl.mem is_x (v, e)) (Graph.incident g v))
      in
      let missing = ref (alpha - current) in
      List.iter
        (fun e ->
          if !missing > 0 && not (Hashtbl.mem is_x (v, e)) then begin
            Hashtbl.replace is_x (v, e) ();
            decr missing
          end)
        (Graph.incident g v)
    end
  done;
  let labeling v e =
    if Hashtbl.mem is_x (v, e) then x
    else color_set_label problem (block colors.(v))
  in
  (problem, labeling)
