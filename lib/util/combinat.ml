let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let multichoose n k = choose (n + k - 1) k

let subsets_of_size k xs =
  (* [n] is the length of [xs].  Stopping once fewer than [k] elements
     remain keeps the call count near the output size, not 2^n. *)
  let rec go k n xs =
    if k = 0 then [ [] ]
    else if n < k then []
    else
      match xs with
      | [] -> []
      | x :: rest ->
          let with_x = List.map (fun s -> x :: s) (go (k - 1) (n - 1) rest) in
          let without = go k (n - 1) rest in
          with_x @ without
  in
  go k (List.length xs) xs

let multisets_of_size k xs =
  let rec go k xs =
    if k = 0 then [ [] ]
    else
      match xs with
      | [] -> []
      | x :: rest ->
          (* take at least one more copy of x, or move on *)
          let with_x = List.map (fun s -> x :: s) (go (k - 1) xs) in
          let without = go k rest in
          with_x @ without
  in
  go k xs

let cartesian ls =
  let rec go = function
    | [] -> [ [] ]
    | l :: rest ->
        let tails = go rest in
        List.concat_map (fun x -> List.map (fun tl -> x :: tl) tails) l
  in
  go ls

let cartesian_exists p ls =
  let rec go acc = function
    | [] -> p (List.rev acc)
    | l :: rest -> List.exists (fun x -> go (x :: acc) rest) l
  in
  go [] ls

let cartesian_for_all p ls =
  let rec go acc = function
    | [] -> p (List.rev acc)
    | l :: rest -> List.for_all (fun x -> go (x :: acc) rest) l
  in
  go [] ls

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          let rest = ref [] in
          let seen = ref false in
          List.iter
            (fun y -> if (not !seen) && y == x then seen := true else rest := y :: !rest)
            xs;
          List.map (fun p -> x :: p) (permutations (List.rev !rest)))
        xs

let fold_tuples n k ~init ~f =
  let rec go acc prefix depth =
    if depth = k then f acc (List.rev prefix)
    else begin
      let acc = ref acc in
      for i = 0 to n - 1 do
        acc := go !acc (i :: prefix) (depth + 1)
      done;
      !acc
    end
  in
  go init [] 0

let pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs
