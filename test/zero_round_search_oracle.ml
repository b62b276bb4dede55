(* The exhaustive 0-round search before it was compiled to edge masks,
   kept as a differential oracle for [Zero_round_search.find_algorithm]
   (see [test_proptest.ml]).  Verbatim apart from [find_algorithm]
   returning its counters next to its result instead of recording a
   span and adding them to the telemetry registry: the same accounting
   as [zrs.assignments], [zrs.instance_checks], [zrs.table_hits] and
   [zrs.table_misses]. *)

open Slocal_graph
open Slocal_formalism
open Slocal_model
module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat

type table = (int * int list, int list) Hashtbl.t

type counters = {
  assignments : int;
  instance_checks : int;
  table_hits : int;
  table_misses : int;
}

let patterns_of support ~d_in_white =
  let g = Bipartite.graph support in
  List.concat_map
    (fun v ->
      let inc = Graph.incident g v in
      List.concat_map
        (fun k -> List.map (fun s -> (v, s)) (Combinat.subsets_of_size k inc))
        (List.init (min d_in_white (List.length inc)) (fun i -> i + 1)))
    (Bipartite.whites support)

(* Candidate output tuples for a pattern: full-size patterns must emit
   white-valid configurations (the pattern alone is a valid instance in
   which the node has full input degree), smaller patterns may emit
   anything. *)
let domain (p : Problem.t) ~d_in_white pattern_size =
  let sigma = Alphabet.size p.Problem.alphabet in
  let all = List.init sigma (fun l -> l) in
  if pattern_size = d_in_white then
    List.concat_map
      (fun cfg -> Combinat.permutations (Multiset.to_list cfg))
      (Constr.configs p.Problem.white)
    |> List.sort_uniq compare
  else
    Combinat.cartesian (List.init pattern_size (fun _ -> all))

exception Budget
exception Found of table

(* The search assigns an output tuple to every (node, pattern) variable
   in order.  Pruning: an input instance becomes fully determined as
   soon as all the patterns it induces are assigned; it is validated at
   that moment, so an inconsistent prefix is cut at the first instance
   it breaks rather than at the leaves. *)
let find_algorithm ?(max_assignments = 50_000_000) support p ~d_in_white
    ~d_in_black =
  if d_in_white <> Problem.d_white p then
    invalid_arg "Zero_round_search: d_in_white must equal the white arity";
  if d_in_black <> Problem.d_black p then
    invalid_arg "Zero_round_search: d_in_black must equal the black arity";
  let g = Bipartite.graph support in
  let patterns = Array.of_list (patterns_of support ~d_in_white) in
  let npat = Array.length patterns in
  let domains =
    Array.map (fun (_, s) -> domain p ~d_in_white (List.length s)) patterns
  in
  let index_of =
    let h = Hashtbl.create (2 * npat) in
    Array.iteri (fun i key -> Hashtbl.add h key i) patterns;
    h
  in
  let instances =
    Supported.all_instances support ~max_white:d_in_white ~max_black:d_in_black
  in
  let tbl : table = Hashtbl.create 64 in
  (* Per-instance bookkeeping. *)
  let inst = Array.of_list instances in
  let ninst = Array.length inst in
  let needed = Array.make ninst [] in
  let users = Array.make npat [] in
  for i = 0 to ninst - 1 do
    let marks = inst.(i).Supported.marks in
    let keys =
      List.filter_map
        (fun v ->
          let pat = List.filter (fun e -> marks.(e)) (Graph.incident g v) in
          if pat = [] then None else Some (Hashtbl.find index_of (v, pat)))
        (Bipartite.whites support)
      |> List.sort_uniq compare
    in
    needed.(i) <- keys;
    List.iter (fun j -> users.(j) <- i :: users.(j)) keys
  done;
  let remaining = Array.map List.length needed in
  let checks = ref 0 and hits = ref 0 and misses = ref 0 in
  let lookup key =
    match Hashtbl.find_opt tbl key with
    | Some _ as r ->
        incr hits;
        r
    | None ->
        incr misses;
        None
  in
  let check_instance i =
    incr checks;
    let marks = inst.(i).Supported.marks in
    let white_pattern v =
      List.filter (fun e -> marks.(e)) (Graph.incident g v)
    in
    let label_of e =
      let u, w = Graph.edge g e in
      let v = if Bipartite.color support u = Bipartite.White then u else w in
      let pat = white_pattern v in
      match lookup (v, pat) with
      | None -> None
      | Some tuple ->
          let rec find es ls =
            match (es, ls) with
            | e' :: _, l :: _ when e' = e -> Some l
            | _ :: es', _ :: ls' -> find es' ls'
            | _ -> None
          in
          find pat tuple
    in
    List.for_all
      (fun v ->
        let pat = white_pattern v in
        if List.length pat <> Problem.d_white p then true
        else
          match lookup (v, pat) with
          | None -> false
          | Some tuple -> Constr.mem (Multiset.of_list tuple) p.Problem.white)
      (Bipartite.whites support)
    && List.for_all
         (fun u ->
           let pat = white_pattern u in
           if List.length pat <> Problem.d_black p then true
           else
             let labels = List.map label_of pat in
             (not (List.exists (fun l -> l = None) labels))
             && Constr.mem
                  (Multiset.of_list (List.filter_map (fun l -> l) labels))
                  p.Problem.black)
         (Bipartite.blacks support)
  in
  let steps = ref 0 in
  let rec go i =
    incr steps;
    if !steps > max_assignments then raise Budget;
    if i = npat then raise (Found (Hashtbl.copy tbl))
    else begin
      let key = patterns.(i) in
      List.iter
        (fun tuple ->
          Hashtbl.replace tbl key tuple;
          List.iter (fun j -> remaining.(j) <- remaining.(j) - 1) users.(i);
          let consistent =
            List.for_all
              (fun j -> remaining.(j) > 0 || check_instance j)
              users.(i)
          in
          if consistent then go (i + 1);
          List.iter (fun j -> remaining.(j) <- remaining.(j) + 1) users.(i))
        domains.(i);
      Hashtbl.remove tbl key
    end
  in
  let counters () =
    {
      assignments = !steps;
      instance_checks = !checks;
      table_hits = !hits;
      table_misses = !misses;
    }
  in
  match go 0 with
  | () -> (Some None, counters ())
  | exception Found t -> (Some (Some t), counters ())
  | exception Budget -> (None, counters ())
