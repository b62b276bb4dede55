open Slocal_graph
module Bitset = Slocal_util.Bitset
module Coloring_family = Slocal_problems.Coloring_family
module Ruling_family = Slocal_problems.Ruling_family

(* ------------------------------------------------------------------ *)
(* Section 4.2                                                         *)

let edges_with_base_label (l : Lift.t) ~labeling ~base_label =
  Array.fold_left
    (fun acc lab ->
      if Bitset.mem base_label l.Lift.meaning.(lab) then acc + 1 else acc)
    0 labeling

let max_per_black_with_base_label (l : Lift.t) support ~labeling ~base_label =
  let g = Bipartite.graph support in
  List.fold_left
    (fun acc v ->
      let count =
        List.length
          (List.filter
             (fun e -> Bitset.mem base_label l.Lift.meaning.(labeling.(e)))
             (Graph.incident g v))
      in
      max acc count)
    0 (Bipartite.blacks support)

type matching_contradiction = {
  p_lower : float;
  p_upper : float;
  contradictory : bool;
}

let matching_contradiction ~delta ~delta' ~y ~n =
  let nf = float_of_int n in
  let p_lower = nf *. ((float_of_int (delta - delta') /. 2.) -. float_of_int y) in
  let p_upper = nf *. float_of_int (delta' - 1) in
  { p_lower; p_upper; contradictory = p_lower > p_upper }

let certify_matching_unsolvable support ~delta' ~y =
  let whites = Bipartite.whites support and blacks = Bipartite.blacks support in
  let n = List.length whites in
  if n = 0 || List.length blacks <> n then None
  else begin
    let g = Bipartite.graph support in
    let delta = Graph.degree g (List.hd whites) in
    if Bipartite.is_biregular support ~dw:delta ~db:delta && delta >= delta'
    then Some (matching_contradiction ~delta ~delta' ~y ~n)
    else None
  end

(* ------------------------------------------------------------------ *)
(* Section 5                                                           *)

type node_config = {
  color_set : int list;
  x_edges : int list;
}

let base_colors (base : Slocal_formalism.Problem.t) =
  List.fold_left
    (fun acc lab ->
      match Coloring_family.color_set_of_label base lab with
      | None -> acc
      | Some cs -> List.fold_left max acc cs)
    0
    (List.init
       (Slocal_formalism.Alphabet.size base.Slocal_formalism.Problem.alphabet)
       (fun i -> i))

(* C_e(v): the union of the color sets appearing in the label-set that
   [v] puts on [e]. *)
let available_colors (base : Slocal_formalism.Problem.t) set =
  Bitset.fold
    (fun base_lab acc ->
      match Coloring_family.color_set_of_label base base_lab with
      | None -> acc
      | Some cs -> List.sort_uniq compare (cs @ acc))
    set []

let configs_of_set_solution ~base ~graph ~set_of ~in_s =
  let k = base_colors base in
  Array.init (Graph.n graph) (fun v ->
      if not (in_s v) then None
      else begin
        let incident = Graph.incident graph v in
        let avail =
          List.map (fun e -> available_colors base (set_of v e)) incident
        in
        let avail = Array.of_list avail in
        let deg = Array.length avail in
        (* H: colors on the left, incident edges on the right; color i
           is adjacent to edge position j iff i is NOT available on it. *)
        let adj i =
          List.filter
            (fun j -> not (List.mem (i + 1) avail.(j)))
            (List.init deg (fun j -> j))
        in
        match Matching.hall_violator ~n_left:k ~n_right:deg ~adj with
        | None ->
            invalid_arg
              "Counting.configs_of_lift_solution: availability graph has a \
               saturating matching — not a valid S-solution"
        | Some violator ->
            let color_set = List.map (fun i -> i + 1) violator in
            (* X goes on the edges where the violator is not fully
               available (its H-neighbourhood, of size < |C|). *)
            let incident_arr = Array.of_list incident in
            let x_edges =
              List.filter_map
                (fun j ->
                  if List.for_all (fun c -> List.mem c avail.(j)) color_set then
                    None
                  else Some incident_arr.(j))
                (List.init deg (fun j -> j))
            in
            Some { color_set; x_edges }
      end)

let configs_of_lift_solution (l : Lift.t) ~graph ~half_labeling ~in_s =
  configs_of_set_solution ~base:l.Lift.base ~graph
    ~set_of:(fun v e -> l.Lift.meaning.(half_labeling v e))
    ~in_s

let two_k_coloring ~graph ~in_s ~configs =
  let n = Graph.n graph in
  (* G_X: edges inside S carrying an X on at least one side. *)
  let is_x v e =
    match configs.(v) with
    | None -> false
    | Some cfg -> List.mem e cfg.x_edges
  in
  let gx_neighbors v =
    List.filter_map
      (fun e ->
        let w = Graph.other_end graph e v in
        if in_s w && (is_x v e || is_x w e) then Some w else None)
      (Graph.incident graph v)
  in
  let palette v =
    match configs.(v) with
    | None -> invalid_arg "Counting.two_k_coloring: node in S without config"
    | Some cfg -> cfg.color_set
  in
  (* Build the elimination ordering: repeatedly extract a node whose
     remaining G_X-degree is at most 2|C_v| - 1. *)
  let alive = Array.init n in_s in
  let order = ref [] in
  let remaining = ref (List.length (List.filter in_s (List.init n (fun v -> v)))) in
  while !remaining > 0 do
    let pick = ref (-1) in
    for v = 0 to n - 1 do
      if !pick = -1 && alive.(v) then begin
        let d =
          List.length (List.filter (fun w -> alive.(w)) (gx_neighbors v))
        in
        if d <= (2 * List.length (palette v)) - 1 then pick := v
      end
    done;
    if !pick = -1 then
      invalid_arg "Counting.two_k_coloring: no low-degree node — invalid S-solution";
    alive.(!pick) <- false;
    decr remaining;
    order := !pick :: !order
  done;
  (* [!order] is the reverse of the extraction order; color greedily in
     that order (reverse of O), each node avoiding its already-colored
     G_X-neighbours within its doubled palette. *)
  let colors = Array.make n (-1) in
  List.iter
    (fun v ->
      let used =
        List.filter_map
          (fun w -> if colors.(w) >= 0 then Some colors.(w) else None)
          (gx_neighbors v)
      in
      let candidates =
        List.concat_map (fun c -> [ 2 * (c - 1); (2 * (c - 1)) + 1 ]) (palette v)
      in
      match List.find_opt (fun c -> not (List.mem c used)) candidates with
      | Some c -> colors.(v) <- c
      | None ->
          invalid_arg "Counting.two_k_coloring: palette exhausted — invalid input")
    !order;
  colors

let lemma_5_7 (l : Lift.t) ~graph ~half_labeling ~in_s =
  let configs = configs_of_lift_solution l ~graph ~half_labeling ~in_s in
  two_k_coloring ~graph ~in_s ~configs

let coloring_unsolvability ~n ~k ~independence_upper =
  let chromatic_lower =
    (n + independence_upper - 1) / independence_upper
  in
  2 * k < chromatic_lower

(* ------------------------------------------------------------------ *)
(* Section 6                                                           *)

type ruling_node_type = Type1 | Type2 | Type3 | Untouched

let classify_ruling_nodes (l : Lift.t) ~graph ~half_labeling ~in_s ~beta ~delta' =
  let p_beta = Ruling_family.label_p l.Lift.base beta in
  let u_beta = Ruling_family.label_u l.Lift.base beta in
  Array.init (Graph.n graph) (fun v ->
      if not (in_s v) then Untouched
      else begin
        let incident = Graph.incident graph v in
        let has lab e = Bitset.mem lab l.Lift.meaning.(half_labeling v e) in
        let touches =
          List.exists (fun e -> has p_beta e || has u_beta e) incident
        in
        if not touches then Untouched
        else if List.for_all (fun e -> has u_beta e) incident then begin
          let p_count = List.length (List.filter (has p_beta) incident) in
          let delta = Graph.degree graph v in
          if p_count > delta - delta' then Type1 else Type2
        end
        else Type3
      end)

let type1_fraction_bound ~delta ~delta' =
  float_of_int delta /. (2. *. float_of_int (delta - delta'))

(* ------------------------------------------------------------------ *)
(* The Lemma 6.6 recursion, executable.                                *)

module Problem = Slocal_formalism.Problem
module Constr = Slocal_formalism.Constr
module Combinat = Slocal_util.Combinat

(* One ruling-set enumeration owns its state; the sets cache lives and
   dies with the call. *)
type ruling_state = {
  delta' : int;
  k : int;
  beta : int;
  x : int;
  base : Problem.t;
  in_s : bool array;
  sets : (int * int, Bitset.t) Hashtbl.t;
}

let initial_ruling_state (l : Lift.t) ~graph ~half_labeling ~in_s =
  (* Recover (k, beta) from the base problem's labels. *)
  let base = l.Lift.base in
  let k = base_colors base in
  let beta =
    List.fold_left
      (fun acc lab ->
        match Ruling_family.classify base lab with
        | `P i | `U i -> max acc i
        | `X | `Color_set _ -> acc)
      0
      (List.init
         (Slocal_formalism.Alphabet.size base.Problem.alphabet)
         (fun i -> i))
  in
  let delta' = Problem.d_white base in
  let sets = Hashtbl.create 64 in
  for v = 0 to Graph.n graph - 1 do
    List.iter
      (fun e -> Hashtbl.replace sets (v, e) l.Lift.meaning.(half_labeling v e))
      (Graph.incident graph v)
  done;
  {
    delta';
    k;
    beta;
    x = 0;
    base;
    in_s = Array.init (Graph.n graph) in_s;
    sets;
  }

let state_set st v e =
  match Hashtbl.find_opt st.sets (v, e) with
  | Some s -> s
  | None -> invalid_arg "Counting: missing half-edge label-set"

(* The white constraint of lift(Π_{Δ'-y}(k,β)) at node v: every
   (Δ'-y)-subset of its incident label-sets admits a choice in the
   white constraint of Π_{Δ'-y}(k,β).  Label indices agree across the
   Δ'-y variants because the alphabet depends only on (k, β). *)
let node_satisfies ~graph st v ~y =
  let dw = st.delta' - y in
  dw >= 1
  && dw <= Graph.degree graph v
  &&
  match Ruling_family.pi ~delta:dw ~c:st.k ~beta:st.beta with
  | exception Invalid_argument _ -> false
  | prob ->
      let incident = Graph.incident graph v in
      let sets = List.map (fun e -> Bitset.to_list (state_set st v e)) incident in
      List.for_all
        (fun sub -> Constr.exists_choice sub prob.Problem.white)
        (Combinat.subsets_of_size dw sets)

let set_has_pointer st set =
  Bitset.exists
    (fun lab ->
      match Ruling_family.classify st.base lab with
      | `P _ -> true
      | `U _ | `X | `Color_set _ -> false)
    set

let check_ruling_state ~graph st =
  let n = Graph.n graph in
  let nodes_ok = ref true in
  for v = 0 to n - 1 do
    if st.in_s.(v) then begin
      let ok = ref false in
      for y = 0 to min st.x (st.delta' - 1) do
        if (not !ok) && node_satisfies ~graph st v ~y then ok := true
      done;
      if not !ok then nodes_ok := false
    end
  done;
  let edges_ok = ref true in
  let boundary_ok = ref true in
  Array.iteri
    (fun e (u, v) ->
      if st.in_s.(u) && st.in_s.(v) then begin
        let su = Bitset.to_list (state_set st u e) in
        let sv = Bitset.to_list (state_set st v e) in
        if not (Constr.for_all_choices [ su; sv ] st.base.Problem.black) then
          edges_ok := false
      end
      else begin
        if st.in_s.(u) && set_has_pointer st (state_set st u e) then
          boundary_ok := false;
        if st.in_s.(v) && set_has_pointer st (state_set st v e) then
          boundary_ok := false
      end)
    (Graph.edges graph);
  !nodes_ok && !edges_ok && !boundary_ok

(* Translate a label of the (k, β) alphabet into the (2k, β-1)
   alphabet, shifting color sets by [shift]; [None] drops the label
   (P_β and U_β). *)
let translate_label ~old_base ~new_base ~new_beta ~shift lab =
  match Ruling_family.classify old_base lab with
  | `X -> Some (Ruling_family.label_x new_base)
  | `Color_set cs ->
      Some (Ruling_family.color_set_label new_base (List.map (fun c -> c + shift) cs))
  | `P i -> if i <= new_beta then Some (Ruling_family.label_p new_base i) else None
  | `U i -> if i <= new_beta then Some (Ruling_family.label_u new_base i) else None

let eliminate_level ~graph st =
  if st.beta < 1 then invalid_arg "Counting.eliminate_level: beta = 0";
  if 2 * st.k > 9 then
    invalid_arg "Counting.eliminate_level: color budget exceeds naming limit";
  let p_beta = Ruling_family.label_p st.base st.beta in
  let u_beta = Ruling_family.label_u st.base st.beta in
  let new_beta = st.beta - 1 in
  let new_base = Ruling_family.pi ~delta:st.delta' ~c:(2 * st.k) ~beta:new_beta in
  let translate ~shift lab =
    translate_label ~old_base:st.base ~new_base ~new_beta ~shift lab
  in
  let node_type v =
    if not (st.in_s.(v)) then Untouched
    else begin
      let incident = Graph.incident graph v in
      let has lab e = Bitset.mem lab (state_set st v e) in
      if not (List.exists (fun e -> has p_beta e || has u_beta e) incident) then
        Untouched
      else if List.for_all (fun e -> has u_beta e) incident then begin
        let p_count = List.length (List.filter (has p_beta) incident) in
        if p_count > Graph.degree graph v - st.delta' then Type1 else Type2
      end
      else Type3
    end
  in
  let types = Array.init (Graph.n graph) node_type in
  let new_sets = Hashtbl.create (Hashtbl.length st.sets) in
  for v = 0 to Graph.n graph - 1 do
    let incident = Graph.incident graph v in
    if types.(v) = Type2 then begin
      (* U-edges: shift colors into the fresh block {k+1..2k}, keep X,
         drop the pointer labels; P-edges: the union of the U-edge
         sets. *)
      let u_edges =
        List.filter (fun e -> not (Bitset.mem p_beta (state_set st v e))) incident
      in
      let shifted e =
        Bitset.fold
          (fun lab acc ->
            match Ruling_family.classify st.base lab with
            | `Color_set cs ->
                Bitset.add
                  (Ruling_family.color_set_label new_base
                     (List.map (fun c -> c + st.k) cs))
                  acc
            | `X | `P _ | `U _ -> acc)
          (state_set st v e)
          (Bitset.singleton (Ruling_family.label_x new_base))
      in
      let union_set =
        List.fold_left
          (fun acc e -> Bitset.union acc (shifted e))
          (Bitset.singleton (Ruling_family.label_x new_base))
          u_edges
      in
      List.iter
        (fun e ->
          let s =
            if Bitset.mem p_beta (state_set st v e) then union_set else shifted e
          in
          Hashtbl.replace new_sets (v, e) s)
        incident
    end
    else
      List.iter
        (fun e ->
          let s =
            Bitset.fold
              (fun lab acc ->
                match translate ~shift:0 lab with
                | Some lab' -> Bitset.add lab' acc
                | None -> acc)
              (state_set st v e)
              Bitset.empty
          in
          Hashtbl.replace new_sets (v, e) s)
        incident
  done;
  let new_in_s = Array.mapi (fun v in_s -> in_s && types.(v) <> Type1) st.in_s in
  {
    delta' = st.delta';
    k = 2 * st.k;
    beta = new_beta;
    x = st.x + 1;
    base = new_base;
    in_s = new_in_s;
    sets = new_sets;
  }

let ruling_state_coloring ~graph st =
  if st.beta <> 0 then
    invalid_arg "Counting.ruling_state_coloring: beta must be 0";
  let configs =
    configs_of_set_solution ~base:st.base ~graph
      ~set_of:(fun v e -> state_set st v e)
      ~in_s:(fun v -> st.in_s.(v))
  in
  two_k_coloring ~graph ~in_s:(fun v -> st.in_s.(v)) ~configs
