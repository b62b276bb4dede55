module Telemetry = Slocal_obs.Telemetry

let greedy g =
  let n = Graph.n g in
  let order =
    List.sort
      (fun u v -> compare (Graph.degree g u, u) (Graph.degree g v, v))
      (List.init n (fun v -> v))
  in
  let blocked = Array.make n false in
  let set = ref [] in
  List.iter
    (fun v ->
      if not blocked.(v) then begin
        set := v :: !set;
        blocked.(v) <- true;
        List.iter (fun w -> blocked.(w) <- true) (Graph.neighbors g v)
      end)
    order;
  List.rev !set

exception Budget_exceeded

(* Branch and bound on the first alive vertex of maximum alive-degree.
   The bound is the trivial |remaining| plus current; adequate for the
   small, sparse support graphs used in the experiments.  Alive degrees
   are kept up to date as vertices die and revive, and the vertices a
   branch kills go on one shared stack, so a search node allocates
   nothing. *)
let exact ?(max_nodes = 5_000_000) g =
  Telemetry.span "graph.independence_exact" @@ fun () ->
  let n = Graph.n g in
  let nbrs = Array.init n (fun v -> Array.of_list (Graph.neighbors g v)) in
  let best = ref (List.length (greedy g)) in
  let nodes = ref 0 in
  let alive = Array.make n true in
  let alive_count = ref n in
  let alive_deg = Array.map Array.length nbrs in
  let killed = Array.make n 0 and top = ref 0 in
  let set_alive u b =
    let d = if b then 1 else -1 in
    alive.(u) <- b;
    alive_count := !alive_count + d;
    Array.iter (fun w -> alive_deg.(w) <- alive_deg.(w) + d) nbrs.(u)
  in
  let kill u =
    if alive.(u) then begin
      set_alive u false;
      killed.(!top) <- u;
      incr top
    end
  in
  let rec branch current =
    incr nodes;
    if !nodes > max_nodes then raise Budget_exceeded;
    if current + !alive_count <= !best then ()
    else begin
      let pick = ref (-1) and pick_deg = ref (-1) and deg_sum = ref 0 in
      for v = 0 to n - 1 do
        if alive.(v) then begin
          let d = alive_deg.(v) in
          deg_sum := !deg_sum + d;
          if d > !pick_deg then begin
            pick := v;
            pick_deg := d
          end
        end
      done;
      if !pick = -1 then begin
        if current > !best then best := current
      end
      else if !pick_deg <= 1 then begin
        (* Remaining graph is a union of isolated vertices and single
           edges: take one endpoint of each edge and all isolated. *)
        let extra = !alive_count - (!deg_sum / 2) in
        if current + extra > !best then best := current + extra
      end
      else begin
        let v = !pick in
        let base = !top in
        (* Branch 1: include v *)
        kill v;
        Array.iter kill nbrs.(v);
        branch (current + 1);
        while !top > base do
          decr top;
          set_alive killed.(!top) true
        done;
        (* Branch 2: exclude v *)
        set_alive v false;
        branch current;
        set_alive v true
      end
    end
  in
  match branch 0 with
  | () -> Some !best
  | exception Budget_exceeded -> None

let upper_bound_alon ~n ~delta ~alpha =
  alpha *. float_of_int n *. log (float_of_int delta) /. float_of_int delta

let chromatic_lower_of_independence ~n ~independence =
  if independence <= 0 then invalid_arg "chromatic_lower_of_independence";
  (n + independence - 1) / independence
