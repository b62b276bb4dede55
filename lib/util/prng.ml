(* Mutable: give each domain its own split. *)
type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }
let copy g = { state = g.state }

let next64 g =
  g.state <- Int64.add g.state golden;
  mix g.state

let split g = { state = mix (next64 g) }
let next g = Int64.to_int (Int64.shift_right_logical (next64 g) 2)

let int g n =
  if n <= 0 then invalid_arg "Prng.int";
  (* Rejection sampling to avoid modulo bias. *)
  let bound = n in
  let limit = max_int - (max_int mod bound) in
  let rec go () =
    let x = next g in
    if x < limit then x mod bound else go ()
  in
  go ()

let float g x = Int64.to_float (Int64.shift_right_logical (next64 g) 11) /. 9007199254740992.0 *. x
let bool g = Int64.logand (next64 g) 1L = 1L

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int g (List.length xs))
