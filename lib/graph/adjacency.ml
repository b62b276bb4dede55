module Telemetry = Slocal_obs.Telemetry

let c_bfs_runs = Telemetry.counter "girth.bfs_runs"

type t = { n : int; off : int array; inc : int array; ends : int array }

let of_graph g =
  let n = Graph.n g and m = Graph.m g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let inc = Array.make (2 * m) 0 in
  for v = 0 to n - 1 do
    List.iteri (fun k e -> inc.(off.(v) + k) <- e) (Graph.incident g v)
  done;
  let ends = Array.make (2 * m) 0 in
  for e = 0 to m - 1 do
    let u, v = Graph.edge g e in
    ends.(2 * e) <- u;
    ends.((2 * e) + 1) <- v
  done;
  { n; off; inc; ends }

let m t = Array.length t.ends / 2

let to_graph t =
  Graph.create ~n:t.n
    (List.init (m t) (fun e -> (t.ends.(2 * e), t.ends.((2 * e) + 1))))

let other t e v = t.ends.(2 * e) lxor t.ends.((2 * e) + 1) lxor v

let mem_edge t u v =
  let rec scan s = s < t.off.(u + 1) && (other t t.inc.(s) u = v || scan (s + 1)) in
  scan t.off.(u)

let exchange t i b j p =
  let set_end e x y =
    if t.ends.(2 * e) = x then t.ends.(2 * e) <- y else t.ends.((2 * e) + 1) <- y
  in
  let set_inc v e e' =
    let s = ref t.off.(v) in
    while t.inc.(!s) <> e do
      incr s
    done;
    t.inc.(!s) <- e'
  in
  set_end i b p;
  set_end j p b;
  set_inc b i j;
  set_inc p j i

type scratch = { dist : int array; parent : int array; queue : int array }

let unseen = max_int

let scratch n =
  { dist = Array.make n unseen; parent = Array.make n (-1); queue = Array.make n 0 }

(* The first [len] queue entries are exactly the vertices a search
   touched. *)
let clear sc len =
  for i = 0 to len - 1 do
    let v = sc.queue.(i) in
    sc.dist.(v) <- unseen;
    sc.parent.(v) <- -1
  done

let search t sc src ~stop_below ~cap k =
  Telemetry.incr c_bfs_runs;
  let { dist; parent; queue } = sc in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let best = ref unseen and best_edge = ref (-1) in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) in
    if (2 * dv) + 1 >= min !best cap then head := !tail
    else begin
      let s = ref t.off.(v) and last = t.off.(v + 1) in
      while !s < last do
        let e = t.inc.(!s) in
        incr s;
        if e <> parent.(v) then begin
          let w = other t e v in
          let dw = dist.(w) in
          if dw = unseen then begin
            dist.(w) <- dv + 1;
            parent.(w) <- e;
            queue.(!tail) <- w;
            incr tail
          end
          else if dv + dw + 1 < !best then begin
            best := dv + dw + 1;
            best_edge := e;
            if !best < stop_below then begin
              s := last;
              head := !tail
            end
          end
        end
      done
    end
  done;
  let r = k !best_edge !best in
  clear sc !tail;
  r

let tree_cycle t sc e buf =
  let { dist; parent; _ } = sc in
  buf.(0) <- e;
  let k = ref 1 in
  let x = ref t.ends.(2 * e) and y = ref t.ends.((2 * e) + 1) in
  let climb r =
    let pe = parent.(!r) in
    buf.(!k) <- pe;
    incr k;
    r := other t pe !r
  in
  while dist.(!x) > dist.(!y) do
    climb x
  done;
  while dist.(!y) > dist.(!x) do
    climb y
  done;
  while !x <> !y do
    climb x;
    climb y
  done;
  !k

let tree_path t sc v =
  let rec up v =
    let e = sc.parent.(v) in
    if e < 0 then [ v ] else v :: up (other t e v)
  in
  up v

let reaches t sc u v ~hidden ~depth =
  Telemetry.incr c_bfs_runs;
  let { dist; queue; _ } = sc in
  dist.(u) <- 0;
  queue.(0) <- u;
  let head = ref 0 and tail = ref 1 and found = ref (u = v) in
  while (not !found) && !head < !tail do
    let x = queue.(!head) in
    incr head;
    let dx = dist.(x) in
    if dx >= depth then head := !tail
    else
      for s = t.off.(x) to t.off.(x + 1) - 1 do
        let e = t.inc.(s) in
        if e <> hidden then begin
          let w = other t e x in
          if dist.(w) = unseen then begin
            dist.(w) <- dx + 1;
            queue.(!tail) <- w;
            incr tail;
            if w = v then found := true
          end
        end
      done
  done;
  clear sc !tail;
  !found
