(* BFS from every source (see Adjacency.search): a non-tree edge met
   from a source bounds a cycle length, and the minimum of these
   bounds over all sources is the girth.  One adjacency and one
   scratch serve all the sources of a call. *)

let prepare g =
  let t = Adjacency.of_graph g in
  (t, Adjacency.scratch t.Adjacency.n)

let bound _ b = b
let to_option b = if b = max_int then None else Some b

let girth g =
  let t, sc = prepare g in
  let best = ref max_int in
  for v = 0 to t.Adjacency.n - 1 do
    best := min !best (Adjacency.search t sc v ~stop_below:0 ~cap:!best bound)
  done;
  to_option !best

let girth_at_least g k =
  let t, sc = prepare g in
  let rec from v =
    v >= t.Adjacency.n
    || (Adjacency.search t sc v ~stop_below:k ~cap:k bound >= k && from (v + 1))
  in
  from 0

(* The first source whose search closes a walk of exactly the girth
   lies on a shortest cycle: its two tree paths meet only at the
   source, since a shared vertex below it would close a shorter
   cycle. *)
let shortest_cycle g =
  match girth g with
  | None -> None
  | Some target ->
      let t, sc = prepare g in
      let closing src e b =
        if b > target then None
        else
          let x = t.Adjacency.ends.(2 * e) and y = t.Adjacency.ends.((2 * e) + 1) in
          Some
            (List.rev (Adjacency.tree_path t sc x)
            @ List.filter (fun u -> u <> src) (Adjacency.tree_path t sc y))
      in
      let rec from src =
        if src >= t.Adjacency.n then None
        else
          match
            Adjacency.search t sc src ~stop_below:(target + 1) ~cap:(target + 1)
              (closing src)
          with
          | Some c -> Some c
          | None -> from (src + 1)
      in
      from 0
