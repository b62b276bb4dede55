open Slocal_graph
open Slocal_formalism
module Multiset = Slocal_util.Multiset

let pi ~delta ~c ~beta =
  if beta < 0 || beta > 9 then invalid_arg "Ruling_family.pi: need 0 <= beta <= 9";
  if beta = 0 then Coloring_family.pi ~delta ~c
  else begin
    if c < 1 || c > 9 then invalid_arg "Ruling_family.pi: need 1 <= c <= 9";
    let subsets = Coloring_family.color_subsets c in
    let subset_names = List.map Coloring_family.set_name subsets in
    let p_names = List.init beta (fun i -> Printf.sprintf "P%d" (i + 1)) in
    let u_names = List.init beta (fun i -> Printf.sprintf "U%d" (i + 1)) in
    let labels = ("X" :: subset_names) @ p_names @ u_names in
    let alphabet = Alphabet.of_names labels in
    let x = 0 in
    let n_subsets = List.length subsets in
    let subset_label =
      let tbl = Hashtbl.create 32 in
      List.iteri (fun i s -> Hashtbl.add tbl s (i + 1)) subsets;
      Hashtbl.find tbl
    in
    let p i = 1 + n_subsets + (i - 1) in
    let u i = 1 + n_subsets + beta + (i - 1) in
    let white_configs =
      List.filter_map
        (fun s ->
          let xs = List.length s - 1 in
          if xs > delta then None
          else
            Some
              (Multiset.of_list
                 (Multiset.to_list
                    (Multiset.replicate (delta - xs) (subset_label s))
                 @ Multiset.to_list (Multiset.replicate xs x))))
        subsets
      @ List.init beta (fun i ->
            Multiset.of_list ((p (i + 1)) :: Multiset.to_list (Multiset.replicate (delta - 1) (u (i + 1)))))
    in
    let disjoint s1 s2 = List.for_all (fun col -> not (List.mem col s2)) s1 in
    let black_configs =
      let color_pairs =
        List.concat_map
          (fun s1 ->
            List.filter_map
              (fun s2 ->
                if disjoint s1 s2 then
                  Some (Multiset.of_list [ subset_label s1; subset_label s2 ])
                else None)
              subsets)
          subsets
      in
      let with_x =
        List.init (List.length labels) (fun l -> Multiset.of_list [ x; l ])
      in
      let pointer_color =
        List.concat_map
          (fun s ->
            List.concat_map
              (fun i -> [ Multiset.of_list [ p i; subset_label s ];
                          Multiset.of_list [ u i; subset_label s ] ])
              (List.init beta (fun i -> i + 1)))
          subsets
      in
      let u_u =
        List.concat_map
          (fun i ->
            List.map
              (fun j -> Multiset.of_list [ u i; u j ])
              (List.init beta (fun j -> j + 1)))
          (List.init beta (fun i -> i + 1))
      in
      let p_u =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                if i > j then Some (Multiset.of_list [ p i; u j ]) else None)
              (List.init beta (fun j -> j + 1)))
          (List.init beta (fun i -> i + 1))
      in
      List.sort_uniq Multiset.compare
        (color_pairs @ with_x @ pointer_color @ u_u @ p_u)
    in
    Problem.make
      ~name:(Printf.sprintf "pi_%d(%d,%d)" delta c beta)
      ~alphabet
      ~white:(Constr.make ~arity:delta white_configs)
      ~black:(Constr.make ~arity:2 black_configs)
  end

let label_x (prob : Problem.t) = Alphabet.find_exn prob.Problem.alphabet "X"

let label_p (prob : Problem.t) i =
  Alphabet.find_exn prob.Problem.alphabet (Printf.sprintf "P%d" i)

let label_u (prob : Problem.t) i =
  Alphabet.find_exn prob.Problem.alphabet (Printf.sprintf "U%d" i)

let color_set_label (prob : Problem.t) colors =
  Alphabet.find_exn prob.Problem.alphabet (Coloring_family.set_name colors)

let classify (prob : Problem.t) l =
  let name = Alphabet.name prob.Problem.alphabet l in
  if name = "X" then `X
  else
    match name.[0] with
    | 'C' ->
        `Color_set
          (List.init
             (String.length name - 1)
             (fun i -> Char.code name.[i + 1] - Char.code '0'))
    | 'P' -> `P (int_of_string (String.sub name 1 (String.length name - 1)))
    | 'U' -> `U (int_of_string (String.sub name 1 (String.length name - 1)))
    | _ -> invalid_arg "Ruling_family.classify: label outside the family"

let pi_solution_of_ruling_set g ~alpha ~c ~beta ~in_set ~colors ~orientation =
  let delta = Graph.max_degree g in
  if alpha > delta then invalid_arg "pi_solution_of_ruling_set: alpha > Δ";
  let k = (alpha + 1) * c in
  let problem = pi ~delta ~c:k ~beta in
  (* BFS from the set, recording one parent edge per non-set node. *)
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent_edge = Array.make n (-1) in
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if in_set.(v) then begin
      dist.(v) <- 0;
      Queue.push v q
    end
  done;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun e ->
        let w = Graph.other_end g e v in
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          parent_edge.(w) <- e;
          Queue.push w q
        end)
      (Graph.incident g v)
  done;
  if Array.exists (fun d -> d > beta) dist then
    invalid_arg "pi_solution_of_ruling_set: set does not dominate within beta";
  (* Set nodes: the Lemma 5.3 color-block construction on the induced
     subgraph; X on outgoing monochromatic set-edges, padded to exactly
     alpha X's at degree-Δ nodes. *)
  let is_x = Hashtbl.create 64 in
  List.iter
    (fun (e, head) ->
      let u, v = Graph.edge g e in
      if in_set.(u) && in_set.(v) then begin
        let tail = if head = u then v else u in
        Hashtbl.replace is_x (tail, e) ()
      end)
    orientation;
  (* Every monochromatic set-edge must be oriented (else both sides
     would emit the same non-disjoint color set). *)
  Array.iteri
    (fun e (u, v) ->
      if
        in_set.(u) && in_set.(v)
        && colors.(u) = colors.(v)
        && (not (Hashtbl.mem is_x (u, e)))
        && not (Hashtbl.mem is_x (v, e))
      then invalid_arg "pi_solution_of_ruling_set: unoriented monochromatic edge")
    (Graph.edges g);
  for v = 0 to n - 1 do
    if in_set.(v) && Graph.degree g v = delta then begin
      let current =
        List.length
          (List.filter (fun e -> Hashtbl.mem is_x (v, e)) (Graph.incident g v))
      in
      if current > alpha then
        invalid_arg "pi_solution_of_ruling_set: out-degree exceeds alpha";
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
  let block qcol = List.init (alpha + 1) (fun j -> (qcol * (alpha + 1)) + j + 1) in
  let x = label_x problem in
  let labeling v e =
    if in_set.(v) then
      if Hashtbl.mem is_x (v, e) then x
      else color_set_label problem (block colors.(v))
    else begin
      let i = dist.(v) in
      if e = parent_edge.(v) then label_p problem i else label_u problem i
    end
  in
  (problem, labeling)

let is_ruling_set g ~beta ~in_set =
  Array.length in_set = Graph.n g
  && Array.for_all
       (fun (u, v) -> not (in_set.(u) && in_set.(v)))
       (Graph.edges g)
  && begin
       (* Multi-source BFS from the set. *)
       let n = Graph.n g in
       let dist = Array.make n max_int in
       let q = Queue.create () in
       for v = 0 to n - 1 do
         if in_set.(v) then begin
           dist.(v) <- 0;
           Queue.push v q
         end
       done;
       while not (Queue.is_empty q) do
         let v = Queue.pop q in
         List.iter
           (fun w ->
             if dist.(w) = max_int then begin
               dist.(w) <- dist.(v) + 1;
               Queue.push w q
             end)
           (Graph.neighbors g v)
       done;
       Array.for_all (fun d -> d <= beta) dist
     end

let is_arb_colored_ruling_set g ~alpha ~c ~beta ~in_set ~colors ~orientation =
  Array.length in_set = Graph.n g
  && begin
       (* Domination within beta. *)
       let n = Graph.n g in
       let dist = Array.make n max_int in
       let q = Queue.create () in
       for v = 0 to n - 1 do
         if in_set.(v) then begin
           dist.(v) <- 0;
           Queue.push v q
         end
       done;
       while not (Queue.is_empty q) do
         let v = Queue.pop q in
         List.iter
           (fun w ->
             if dist.(w) = max_int then begin
               dist.(w) <- dist.(v) + 1;
               Queue.push w q
             end)
           (Graph.neighbors g v)
       done;
       Array.for_all (fun d -> d <= beta) dist
     end
  && begin
       (* The induced subgraph on the set carries an arbdefective
          coloring. *)
       let members =
         List.filter (fun v -> in_set.(v)) (List.init (Graph.n g) (fun v -> v))
       in
       let sub, map = Graph.induced g members in
       let back = Array.make (Graph.n g) (-1) in
       Array.iteri (fun i v -> back.(v) <- i) map;
       let sub_colors = Array.map (fun v -> colors.(v)) map in
       let sub_orientation =
         List.filter_map
           (fun (e, head) ->
             if e < 0 || e >= Graph.m g then None
             else
               let u, v = Graph.edge g e in
               if back.(u) >= 0 && back.(v) >= 0 then
                 match Graph.find_edge sub back.(u) back.(v) with
                 | Some e' -> Some (e', back.(head))
                 | None -> None
               else None)
           orientation
       in
       List.length sub_orientation = List.length orientation
       && Coloring_family.is_arbdefective_coloring sub ~alpha ~c
            ~colors:sub_colors ~orientation:sub_orientation
     end
