open Slocal_graph
open Slocal_formalism

let sinkless_orientation ~delta =
  if delta < 2 then invalid_arg "Classic.sinkless_orientation: Δ >= 2";
  Problem.parse
    ~name:(Printf.sprintf "sinkless-orientation_%d" delta)
    ~labels:[ "O"; "I" ]
    ~white:(Printf.sprintf "O [O I]^%d" (delta - 1))
    ~black:(Printf.sprintf "I [I O]^%d" (delta - 1))

(* Π_Δ(Δ) is Π_Δ((α+1)·c) with α = Δ-1, c = 1; Δ <= 9 because of the
   digit encoding of color names in Coloring_family. *)
let sinkless_coloring ~delta =
  if delta > 9 then invalid_arg "Classic.sinkless_coloring: Δ <= 9 supported";
  Problem.rename (Coloring_family.pi ~delta ~c:delta)
    (Printf.sprintf "sinkless-coloring_%d" delta)

let coloring ~delta ~c =
  if c < 1 then invalid_arg "Classic.coloring: c >= 1";
  let labels = List.init c (fun i -> Printf.sprintf "c%d" (i + 1)) in
  let white =
    String.concat " | "
      (List.map (fun l -> Printf.sprintf "%s^%d" l delta) labels)
  in
  let black =
    String.concat " | "
      (List.concat_map
         (fun l1 ->
           List.filter_map
             (fun l2 -> if l1 < l2 then Some (l1 ^ " " ^ l2) else None)
             labels)
         labels)
  in
  if black = "" then invalid_arg "Classic.coloring: c >= 2 required";
  Problem.parse
    ~name:(Printf.sprintf "%d-coloring_%d" c delta)
    ~labels ~white ~black

let mis_family ~delta = Ruling_family.pi ~delta ~c:1 ~beta:1

let ruling_set_family ~delta ~beta = Ruling_family.pi ~delta ~c:1 ~beta

let is_sinkless_orientation g ~towards_head =
  let oriented = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun (e, head) ->
      if e < 0 || e >= Graph.m g then ok := false
      else begin
        let u, v = Graph.edge g e in
        if head <> u && head <> v then ok := false;
        if Hashtbl.mem oriented e then ok := false;
        Hashtbl.add oriented e head
      end)
    towards_head;
  for e = 0 to Graph.m g - 1 do
    if not (Hashtbl.mem oriented e) then ok := false
  done;
  let has_outgoing = Array.make (Graph.n g) false in
  Hashtbl.iter
    (fun e head ->
      let u, v = Graph.edge g e in
      let tail = if head = u then v else u in
      has_outgoing.(tail) <- true)
    oriented;
  !ok
  && Array.for_all (fun b -> b)
       (Array.init (Graph.n g) (fun v -> Graph.degree g v = 0 || has_outgoing.(v)))
