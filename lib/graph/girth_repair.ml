module Prng = Slocal_util.Prng
module Telemetry = Slocal_obs.Telemetry

let c_girth_swaps = Telemetry.counter "graph.girth_swaps"

(* Consecutive rejected swaps after which a vertex is given up. *)
let patience = 64

(* The goal is raised one girth at a time, from 4 up to [target].  In
   one pass at goal [g], each vertex in turn runs a bounded BFS; while
   it lies on a cycle shorter than [g], an edge [ab] of that cycle
   trades its endpoint [b] for the endpoint [p] of a random partner
   edge [qp], giving [ap] and [qb].  The swap stands only if neither
   new edge closes a cycle shorter than [g] (a BFS between its ends,
   the edge itself hidden, to depth [g - 2]); otherwise it is undone.
   Accepted swaps never create a short cycle, so a vertex once clean
   stays clean and one pass per goal suffices.  Raising the goal in
   steps keeps the acceptance test loose while the short cycles are
   still easy to break; the first goal a pass cannot reach ends the
   repair. *)
let repair ?white rng g ~target ~max_steps =
  Telemetry.span "graph.improve_girth" @@ fun () ->
  let t = Adjacency.of_graph g in
  let n = t.Adjacency.n and m = Adjacency.m t in
  let target = min target (n + 1) in
  let sc = Adjacency.scratch n in
  let cycle = Array.make (n + 1) 0 in
  let steps = ref 0 in
  let orient e =
    let x = t.Adjacency.ends.(2 * e) and y = t.Adjacency.ends.((2 * e) + 1) in
    let keep_x =
      match white with Some is_white -> is_white x | None -> Prng.bool rng
    in
    if keep_x then (x, y) else (y, x)
  in
  let pass goal =
    let short_cycle v =
      Adjacency.search t sc v ~stop_below:goal ~cap:goal (fun e _ ->
          if e < 0 then 0 else Adjacency.tree_cycle t sc e cycle)
    in
    let closes_short u w e = Adjacency.reaches t sc u w ~hidden:e ~depth:(goal - 2) in
    let clean = ref true in
    for v = 0 to n - 1 do
      let k = ref (short_cycle v) and rejected = ref 0 in
      while !k > 0 && !rejected < patience && !steps < max_steps do
        incr steps;
        let i = cycle.(Prng.int rng !k) in
        let j = Prng.int rng m in
        let a, b = orient i in
        let q, p = orient j in
        if
          i <> j && p <> a && p <> b && q <> a && q <> b
          && (not (Adjacency.mem_edge t a p))
          && not (Adjacency.mem_edge t q b)
        then begin
          Adjacency.exchange t i b j p;
          if closes_short a p i || closes_short q b j then begin
            Adjacency.exchange t i p j b;
            incr rejected
          end
          else begin
            Telemetry.incr c_girth_swaps;
            rejected := 0;
            k := short_cycle v
          end
        end
        else incr rejected
      done;
      if !k > 0 then clean := false
    done;
    !clean
  in
  let rec raise_goal goal = goal > target || (pass goal && raise_goal (goal + 1)) in
  ignore (raise_goal 4 : bool);
  Adjacency.to_graph t
