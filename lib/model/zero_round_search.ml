open Slocal_graph
open Slocal_formalism
module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat
module Telemetry = Slocal_obs.Telemetry

type table = (int * int list, int list) Hashtbl.t

let c_searches = Telemetry.counter "zrs.searches"
let c_assignments = Telemetry.counter "zrs.assignments"
let c_instance_checks = Telemetry.counter "zrs.instance_checks"
let c_table_hits = Telemetry.counter "zrs.table_hits"
(* Never incremented since the search checks only fully assigned
   instances; kept as the denominator of the table hit fraction. *)
let (_ : Telemetry.metric) = Telemetry.counter "zrs.table_misses"
let c_budget = Telemetry.counter "zrs.budget_exhausted"

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

let table_correct support (p : Problem.t) ~d_in_white ~d_in_black (tbl : table) =
  let g = Bipartite.graph support in
  let instances = Supported.all_instances support ~max_white:d_in_white ~max_black:d_in_black in
  let white_pattern marks v =
    List.filter (fun e -> marks.(e)) (Graph.incident g v)
  in
  let label_of marks e =
    (* The white endpoint of [e] labels it according to its pattern. *)
    let u, w = Graph.edge g e in
    let v = if Bipartite.color support u = Bipartite.White then u else w in
    let pat = white_pattern marks v in
    match Hashtbl.find_opt tbl (v, pat) with
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
    (fun inst ->
      let marks = inst.Supported.marks in
      let whites_ok =
        List.for_all
          (fun v ->
            let pat = white_pattern marks v in
            if List.length pat <> Problem.d_white p then true
            else
              match Hashtbl.find_opt tbl (v, pat) with
              | None -> false
              | Some tuple -> Constr.mem (Multiset.of_list tuple) p.Problem.white)
          (Bipartite.whites support)
      in
      whites_ok
      && List.for_all
           (fun u ->
             let pat = white_pattern marks u in
             if List.length pat <> Problem.d_black p then true
             else
               let labels = List.map (label_of marks) pat in
               if List.exists (fun l -> l = None) labels then false
               else
                 Constr.mem
                   (Multiset.of_list (List.filter_map (fun l -> l) labels))
                   p.Problem.black)
           (Bipartite.blacks support))
    instances

(* The exhaustive search enumerates every input graph, one per subset
   of the support's edges. *)
let max_edges = 20

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

exception Budget
exception Found

(* The search assigns an output tuple to every (node, pattern) variable
   in order.  Pruning: an input instance becomes fully determined as
   soon as all the patterns it induces are assigned; it is validated at
   that moment, so an inconsistent prefix is cut at the first instance
   it breaks rather than at the leaves.

   Everything the checks need is compiled once per call, so a check
   runs on ints without allocating.  An input instance is its edge
   mask, bit [e] set iff edge [e] is an input edge.  A white node's
   pattern is read off its local mask (bit [k] = its [k]-th incident
   edge), and an edge's position in that pattern is the number of
   input edges before it in the incident list.  The assignment is
   [choice.(j)], the index of pattern [j]'s tuple in its domain; the
   table itself is built only for a witness. *)
let find_algorithm ?(max_assignments = 50_000_000) support p ~d_in_white
    ~d_in_black =
  Telemetry.span "zrs.find_algorithm" @@ fun () ->
  Telemetry.incr c_searches;
  if d_in_white <> Problem.d_white p then
    invalid_arg "Zero_round_search: d_in_white must equal the white arity";
  if d_in_black <> Problem.d_black p then
    invalid_arg "Zero_round_search: d_in_black must equal the black arity";
  let g = Bipartite.graph support in
  let m = Graph.m g in
  if m > max_edges then
    invalid_arg
      (Printf.sprintf
         "0-round search: the support has %d edges, over the limit of %d \
          (the search enumerates all 2^%d input graphs)"
         m max_edges m);
  let patterns = Array.of_list (patterns_of support ~d_in_white) in
  let npat = Array.length patterns in
  let tuples =
    Array.map
      (fun (_, s) -> Array.of_list (domain p ~d_in_white (List.length s)))
      patterns
  in
  let labels = Array.map (Array.map Array.of_list) tuples in
  let white_ok =
    Array.map
      (Array.map (fun tuple ->
           List.length tuple <> d_in_white
           || Constr.mem (Multiset.of_list tuple) p.Problem.white))
      tuples
  in
  (* Per white (black) node, in [Bipartite.whites] ([blacks]) order:
     its incident edges and their mask. *)
  let incident side =
    Array.of_list
      (List.map (fun v -> Array.of_list (Graph.incident g v)) (side support))
  in
  let white_inc = incident Bipartite.whites in
  let black_inc = incident Bipartite.blacks in
  let nwhite = Array.length white_inc in
  let inc_mask = Array.fold_left (fun acc e -> acc lor (1 lsl e)) 0 in
  let white_mask = Array.map inc_mask white_inc in
  let black_mask = Array.map inc_mask black_inc in
  (* For each edge: its white endpoint (as an index into [white_inc]) and
     its bit in that node's local mask. *)
  let edge_white = Array.make m 0 and edge_bit = Array.make m 0 in
  Array.iteri
    (fun wi es ->
      Array.iteri
        (fun k e ->
          edge_white.(e) <- wi;
          edge_bit.(e) <- 1 lsl k)
        es)
    white_inc;
  let local_mask mask wi =
    let es = white_inc.(wi) in
    let local = ref 0 in
    for k = 0 to Array.length es - 1 do
      if mask land (1 lsl es.(k)) <> 0 then local := !local lor (1 lsl k)
    done;
    !local
  in
  (* [pattern_of.(wi).(local)]: the index of white [wi]'s pattern with
     that local mask. *)
  let pattern_of =
    Array.map (fun es -> Array.make (1 lsl Array.length es) (-1)) white_inc
  in
  Array.iteri
    (fun j (_, s) ->
      let wi = edge_white.(List.hd s) in
      let local = List.fold_left (fun acc e -> acc lor edge_bit.(e)) 0 s in
      pattern_of.(wi).(local) <- j)
    patterns;
  (* The input instances, in ascending mask order. *)
  let instances =
    let within masks limit mask =
      let ok = ref true and k = ref 0 in
      while !ok && !k < Array.length masks do
        ok := popcount (mask land masks.(!k)) <= limit;
        incr k
      done;
      !ok
    in
    let acc = Array.make (1 lsl m) 0 and n = ref 0 in
    for mask = 0 to (1 lsl m) - 1 do
      if within white_mask d_in_white mask && within black_mask d_in_black mask
      then begin
        acc.(!n) <- mask;
        incr n
      end
    done;
    Array.sub acc 0 !n
  in
  (* An instance is checked as soon as the last of the patterns it
     induces is assigned: [completes.(j)] lists the instances whose
     last pattern is [j].  They are checked in descending order, the
     order the search has always used, and the first failure stops the
     scan, so the order fixes [zrs.instance_checks]. *)
  let last =
    Array.map
      (fun mask ->
        let last = ref (-1) in
        for wi = 0 to nwhite - 1 do
          let local = local_mask mask wi in
          if local <> 0 then last := max !last pattern_of.(wi).(local)
        done;
        !last)
      instances
  in
  let completes = Array.make npat [] in
  Array.iteri
    (fun i j -> if j >= 0 then completes.(j) <- i :: completes.(j))
    last;
  let completes = Array.map Array.of_list completes in
  let choice = Array.make npat 0 in
  (* C_B as sorted label arrays, so that a black node's labels, sorted
     into [buf] by insertion, are looked up without allocating. *)
  let black_ok = Hashtbl.create 64 in
  List.iter
    (fun cfg ->
      Hashtbl.replace black_ok (Array.of_list (Multiset.to_list cfg)) ())
    (Constr.configs p.Problem.black);
  let buf = Array.make d_in_black 0 in
  (* Every pattern an instance induces is assigned by the time the
     instance is checked, so each lookup of the table hits. *)
  let checks = ref 0 and hits = ref 0 in
  (* The white pass records each white node's local mask and pattern
     for the black pass, which only runs once every white node is
     visited. *)
  let local_of = Array.make nwhite 0 and pattern_at = Array.make nwhite 0 in
  let white_holds mask wi =
    let local = local_mask mask wi in
    let j = pattern_of.(wi).(local) in
    local_of.(wi) <- local;
    pattern_at.(wi) <- j;
    popcount local <> d_in_white
    || begin
         incr hits;
         white_ok.(j).(choice.(j))
       end
  in
  let black_holds mask bi =
    let es = black_inc.(bi) in
    popcount (mask land black_mask.(bi)) <> d_in_black
    ||
    let n = ref 0 in
    for k = 0 to Array.length es - 1 do
      let e = es.(k) in
      if mask land (1 lsl e) <> 0 then begin
        incr hits;
        let wi = edge_white.(e) in
        let j = pattern_at.(wi) in
        let pos = popcount (local_of.(wi) land (edge_bit.(e) - 1)) in
        let l = labels.(j).(choice.(j)).(pos) in
        let q = ref !n in
        while !q > 0 && buf.(!q - 1) > l do
          buf.(!q) <- buf.(!q - 1);
          decr q
        done;
        buf.(!q) <- l;
        incr n
      end
    done;
    Hashtbl.mem black_ok buf
  in
  let check_instance i =
    incr checks;
    let mask = instances.(i) in
    let ok = ref true and wi = ref 0 in
    while !ok && !wi < nwhite do
      ok := white_holds mask !wi;
      incr wi
    done;
    let bi = ref 0 in
    while !ok && !bi < Array.length black_inc do
      ok := black_holds mask !bi;
      incr bi
    done;
    !ok
  in
  let steps = ref 0 in
  let rec go i =
    incr steps;
    if !steps > max_assignments then raise Budget;
    if i = npat then raise Found
    else begin
      let us = completes.(i) in
      for t = 0 to Array.length tuples.(i) - 1 do
        choice.(i) <- t;
        let consistent = ref true and k = ref 0 in
        while !consistent && !k < Array.length us do
          consistent := check_instance us.(!k);
          incr k
        done;
        if !consistent then go (i + 1)
      done
    end
  in
  let flush () =
    Telemetry.add c_assignments !steps;
    Telemetry.add c_instance_checks !checks;
    Telemetry.add c_table_hits !hits
  in
  match go 0 with
  | () ->
      flush ();
      Some None
  | exception Found ->
      flush ();
      let tbl : table = Hashtbl.create 64 in
      Array.iteri
        (fun j key -> Hashtbl.replace tbl key tuples.(j).(choice.(j)))
        patterns;
      Some (Some tbl)
  | exception Budget ->
      flush ();
      Telemetry.incr c_budget;
      None

let exists_algorithm ?max_assignments support p ~d_in_white ~d_in_black =
  match find_algorithm ?max_assignments support p ~d_in_white ~d_in_black with
  | None -> None
  | Some (Some _) -> Some true
  | Some None -> Some false

let algorithm_of_table (tbl : table) =
  {
    Supported.rounds = 0;
    output =
      (fun view ->
        let v = View.center view in
        let pat = View.center_input_edges view in
        match Hashtbl.find_opt tbl (v, pat) with
        | None -> []
        | Some tuple -> List.combine pat tuple);
  }
