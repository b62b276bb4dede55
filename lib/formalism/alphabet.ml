(* The interning index is filled in of_names and read-only afterwards. *)
type t = {
  names : string array;
  index : (string, int) Hashtbl.t;
}

let reserved c =
  c = '[' || c = ']' || c = '^' || c = '(' || c = ')' || c = ' ' || c = '\t'
  || c = '\n' || c = '\r'

let valid_name s = s <> "" && String.for_all (fun c -> not (reserved c)) s

let of_names names =
  let arr = Array.of_list names in
  let index = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i s ->
      if not (valid_name s) then
        invalid_arg (Printf.sprintf "Alphabet.of_names: bad label name %S" s);
      if Hashtbl.mem index s then
        invalid_arg (Printf.sprintf "Alphabet.of_names: duplicate label %S" s);
      Hashtbl.add index s i)
    arr;
  { names = arr; index }

let size t = Array.length t.names

let name t i =
  if i < 0 || i >= size t then invalid_arg "Alphabet.name: out of range";
  t.names.(i)

let find t s = Hashtbl.find_opt t.index s

let find_exn t s =
  match find t s with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Alphabet: unknown label %S" s)

let names t = Array.to_list t.names
let mem t s = Hashtbl.mem t.index s
let equal a b = a.names = b.names
let pp_label t fmt i = Format.pp_print_string fmt (name t i)

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
       Format.pp_print_string)
    (names t)
