module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat

type t = {
  name : string;
  alphabet : Alphabet.t;
  white : Constr.t;
  black : Constr.t;
}

let make ~name ~alphabet ~white ~black =
  let check c =
    List.iter
      (fun l ->
        if l < 0 || l >= Alphabet.size alphabet then
          invalid_arg "Problem.make: label out of alphabet")
      (Constr.labels_used c)
  in
  check white;
  check black;
  { name; alphabet; white; black }

let d_white t = Constr.arity t.white
let d_black t = Constr.arity t.black

(* ------------------------------------------------------------------ *)
(* Parsing the condensed syntax.                                       *)

type token = Name of string | Lbracket | Rbracket | Caret | Int of int | Bar

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  let is_space c = c = ' ' || c = '\t' || c = '\r' in
  let is_delim c =
    is_space c || c = '[' || c = ']' || c = '^' || c = '|' || c = '\n'
  in
  while !i < n do
    let c = s.[!i] in
    if is_space c then incr i
    else if c = '\n' || c = '|' then begin
      tokens := Bar :: !tokens;
      incr i
    end
    else if c = '[' then begin
      tokens := Lbracket :: !tokens;
      incr i
    end
    else if c = ']' then begin
      tokens := Rbracket :: !tokens;
      incr i
    end
    else if c = '^' then begin
      tokens := Caret :: !tokens;
      incr i
    end
    else begin
      let j = ref !i in
      while !j < n && not (is_delim s.[!j]) do
        incr j
      done;
      let word = String.sub s !i (!j - !i) in
      i := !j;
      match int_of_string_opt word with
      | Some k when !tokens <> [] && List.hd !tokens = Caret ->
          tokens := Int k :: !tokens
      | _ -> tokens := Name word :: !tokens
    end
  done;
  List.rev !tokens

(* One configuration line -> list of (alternatives, repetition). *)
let parse_items alphabet tokens =
  let lookup w =
    match Alphabet.find alphabet w with
    | Some l -> l
    | None -> invalid_arg (Printf.sprintf "Problem.parse: unknown label %S" w)
  in
  let rec items acc = function
    | [] -> List.rev acc
    | Name w :: rest -> exponent acc [ lookup w ] rest
    | Lbracket :: rest ->
        let rec group ls = function
          | Name w :: rest -> group (lookup w :: ls) rest
          | Rbracket :: rest ->
              if ls = [] then invalid_arg "Problem.parse: empty bracket group";
              (List.rev ls, rest)
          | _ -> invalid_arg "Problem.parse: malformed bracket group"
        in
        let alts, rest = group [] rest in
        exponent acc alts rest
    | (Rbracket | Caret | Int _ | Bar) :: _ ->
        invalid_arg "Problem.parse: unexpected token"
  and exponent acc alts = function
    | Caret :: Int k :: rest ->
        if k < 0 then invalid_arg "Problem.parse: negative exponent";
        items ((alts, k) :: acc) rest
    | Caret :: _ -> invalid_arg "Problem.parse: ^ must be followed by an integer"
    | rest -> items ((alts, 1) :: acc) rest
  in
  items [] tokens

let max_config_arity = 256

(* Refuse a line whose exponents sum past [max_config_arity] before
   [expand_items_multi] builds a list of that length.  Comparing each
   exponent with the room left keeps the sum from overflowing. *)
let check_arity items =
  ignore
    (List.fold_left
       (fun arity (_, k) ->
         if k > max_config_arity - arity then
           invalid_arg
             (Printf.sprintf
                "Problem.parse: configuration arity exceeds %d \
                 (max_config_arity)"
                max_config_arity);
         arity + k)
       0 items)

let expand_items_multi items =
  let positions =
    List.concat_map (fun (alts, k) -> List.init k (fun _ -> alts)) items
  in
  Combinat.cartesian positions |> List.map Multiset.of_list

let parse_configs_multi alphabet s =
  let tokens = tokenize s in
  (* Split on Bar. *)
  let groups =
    List.fold_left
      (fun acc tok ->
        match (tok, acc) with
        | Bar, _ -> [] :: acc
        | t, cur :: rest -> (t :: cur) :: rest
        | _, [] -> assert false)
      [ [] ] tokens
    |> List.rev_map List.rev
    |> List.filter (fun g -> g <> [])
  in
  List.concat_map
    (fun g ->
      let items = parse_items alphabet g in
      check_arity items;
      expand_items_multi items)
    groups
  |> List.sort Multiset.compare

let parse_configs alphabet s =
  List.sort_uniq Multiset.compare (parse_configs_multi alphabet s)

let parse ~name ~labels ~white ~black =
  let alphabet = Alphabet.of_names labels in
  let parse_side which s =
    let configs = parse_configs alphabet s in
    match configs with
    | [] -> invalid_arg (Printf.sprintf "Problem.parse: empty %s constraint" which)
    | c :: _ ->
        let arity = Multiset.size c in
        List.iter
          (fun c' ->
            if Multiset.size c' <> arity then
              invalid_arg
                (Printf.sprintf
                   "Problem.parse: %s configurations of different sizes" which))
          configs;
        Constr.make ~arity configs
  in
  make ~name ~alphabet ~white:(parse_side "white" white)
    ~black:(parse_side "black" black)

(* ------------------------------------------------------------------ *)

let to_string t =
  let buf = Buffer.create 256 in
  let config_line c =
    String.concat " "
      (List.map (Alphabet.name t.alphabet) (Multiset.to_list c))
  in
  Buffer.add_string buf (Printf.sprintf "problem %s\n" t.name);
  Buffer.add_string buf
    (Printf.sprintf "labels: %s\n" (String.concat " " (Alphabet.names t.alphabet)));
  Buffer.add_string buf "white:\n";
  List.iter
    (fun c -> Buffer.add_string buf ("  " ^ config_line c ^ "\n"))
    (Constr.configs t.white);
  Buffer.add_string buf "black:\n";
  List.iter
    (fun c -> Buffer.add_string buf ("  " ^ config_line c ^ "\n"))
    (Constr.configs t.black);
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let trim = String.trim in
  let name = ref None
  and labels = ref None
  and white = Buffer.create 64
  and black = Buffer.create 64 in
  let section = ref `None in
  List.iter
    (fun raw ->
      let line = trim raw in
      if line = "" || line.[0] = '#' then ()
      else if String.length line > 8 && String.sub line 0 8 = "problem " then
        name := Some (trim (String.sub line 8 (String.length line - 8)))
      else if String.length line > 7 && String.sub line 0 7 = "labels:" then
        labels :=
          Some
            (String.split_on_char ' '
               (trim (String.sub line 7 (String.length line - 7)))
            |> List.filter (fun s -> s <> ""))
      else if line = "white:" then section := `White
      else if line = "black:" then section := `Black
      else
        match !section with
        | `White ->
            Buffer.add_string white line;
            Buffer.add_char white '\n'
        | `Black ->
            Buffer.add_string black line;
            Buffer.add_char black '\n'
        | `None ->
            invalid_arg
              (Printf.sprintf "Problem.of_string: unexpected line %S" line))
    lines;
  match (!name, !labels) with
  | _, None -> invalid_arg "Problem.of_string: missing labels: line"
  | name, Some labels ->
      parse
        ~name:(Option.value name ~default:"unnamed")
        ~labels
        ~white:(Buffer.contents white)
        ~black:(Buffer.contents black)

let swap_sides t =
  { t with name = t.name ^ "-swapped"; white = t.black; black = t.white }

let rename t name = { t with name }

let equal a b =
  Alphabet.equal a.alphabet b.alphabet
  && Constr.equal a.white b.white
  && Constr.equal a.black b.black

(* Signature of a label: its multiplicity profile across the white and
   black configurations.  Invariant under relabeling, used to prune the
   bijection search. *)
let label_signature p l =
  let profile c =
    List.sort compare
      (List.filter_map
         (fun cfg ->
           let k = Multiset.count l cfg in
           if k > 0 then Some k else None)
         (Constr.configs c))
  in
  (profile p.white, profile p.black)

let canonical_hash p =
  let n = Alphabet.size p.alphabet in
  let sigs = List.sort compare (List.init n (label_signature p)) in
  Hashtbl.hash
    ( Constr.arity p.white,
      Constr.arity p.black,
      Constr.size p.white,
      Constr.size p.black,
      sigs )

let equal_up_to_renaming a b =
  let na = Alphabet.size a.alphabet and nb = Alphabet.size b.alphabet in
  if na <> nb then false
  else if Constr.arity a.white <> Constr.arity b.white then false
  else if Constr.arity a.black <> Constr.arity b.black then false
  else if Constr.size a.white <> Constr.size b.white then false
  else if Constr.size a.black <> Constr.size b.black then false
  else begin
    let sig_a = Array.init na (label_signature a) in
    let sig_b = Array.init nb (label_signature b) in
    let mapping = Array.make na (-1) in
    let used = Array.make nb false in
    let check_final () =
      let f l = mapping.(l) in
      Constr.equal (Constr.map_labels f a.white) b.white
      && Constr.equal (Constr.map_labels f a.black) b.black
    in
    let rec go l =
      if l = na then check_final ()
      else
        let rec try_target t =
          if t = nb then false
          else if (not used.(t)) && sig_a.(l) = sig_b.(t) then begin
            mapping.(l) <- t;
            used.(t) <- true;
            let ok = go (l + 1) in
            used.(t) <- false;
            mapping.(l) <- -1;
            ok || try_target (t + 1)
          end
          else try_target (t + 1)
        in
        try_target 0
    in
    go 0
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
