(* A small seeded property-testing harness over [Slocal_util.Prng].

   Every run is reproducible from one integer seed: case [i] of a
   property draws from a generator seeded by [seed] and the case
   number, so a failure report quotes exactly what must be re-run.
   Counterexamples are shrunk greedily through a caller-supplied
   shrink function before being printed.

   The harness is deliberately tiny — properties are plain functions
   to [bool] (an exception also counts as a failure), and the suite in
   [test_proptest.ml] plugs the result into Alcotest. *)

module Prng = Slocal_util.Prng
module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat
open Slocal_formalism

type 'a gen = Prng.t -> 'a

type 'a property = {
  name : string;
  count : int;
  gen : 'a gen;
  print : 'a -> string;
  shrink : 'a -> 'a list;
  prop : 'a -> bool;
}

let property ?(count = 200) ?(shrink = fun _ -> []) ~name ~gen ~print prop =
  { name; count; gen; print; shrink; prop }

(* [true] iff the case passes; exceptions are failures (and are
   reported with the counterexample). *)
let passes p x = match p.prop x with v -> v | exception _ -> false

let shrink_to_fixpoint p x0 =
  let budget = ref 1000 in
  let rec go x =
    if !budget <= 0 then x
    else
      match List.find_opt (fun y -> decr budget; not (passes p y)) (p.shrink x) with
      | Some y -> go y
      | None -> x
  in
  go x0

(* Run the property; raises [Failure] with a reproduction message on
   the first failing case. *)
let run ~seed p =
  for i = 0 to p.count - 1 do
    let rng = Prng.create (Hashtbl.hash (seed, i, p.name)) in
    let x = p.gen rng in
    if not (passes p x) then begin
      let small = shrink_to_fixpoint p x in
      failwith
        (Printf.sprintf
           "property %S: case %d/%d failed (rerun with PROPTEST_SEED=%d)\n\
            counterexample:\n%s\nshrunk:\n%s"
           p.name (i + 1) p.count seed (p.print x) (p.print small))
    end
  done

let seed_from_env ~default =
  match Sys.getenv_opt "PROPTEST_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> default)
  | None -> default

(* ------------------------------------------------------------------ *)
(* Generators *)

let int_range lo hi g = lo + Prng.int g (hi - lo + 1)

(* A fresh alphabet of [size] single-letter labels. *)
let alphabet ~size =
  Alphabet.of_names
    (List.init size (fun i -> String.make 1 (Char.chr (Char.code 'A' + i))))

let multiset ~size ~labels g =
  Multiset.of_list (List.init size (fun _ -> Prng.pick g labels))

(* A random non-empty constraint of the given arity: each size-[arity]
   multiset over [labels] is kept independently; if the coin drops
   everything, one random configuration keeps the constraint legal. *)
let constr ~arity ~labels g =
  let all = Combinat.multisets_of_size arity labels in
  let kept =
    List.filter (fun _ -> Prng.int g 100 < 40) all
    |> List.map Multiset.of_list
  in
  let kept = if kept = [] then [ multiset ~size:arity ~labels g ] else kept in
  Constr.make ~arity kept

(* A random bipartite problem with the given arity profile.  Labels
   never used by either constraint are common under small keep
   probabilities and are kept: RE must handle them. *)
let problem ~d_white ~d_black g =
  let n = int_range 2 4 g in
  let labels = List.init n (fun i -> i) in
  Problem.make ~name:"random" ~alphabet:(alphabet ~size:n)
    ~white:(constr ~arity:d_white ~labels g)
    ~black:(constr ~arity:d_black ~labels g)

(* Shrinking by configuration deletion: every problem obtained by
   dropping one configuration from one side (constraints stay
   non-empty). *)
let shrink_problem (p : Problem.t) =
  let drop_each configs =
    if List.length configs <= 1 then []
    else
      List.mapi
        (fun i _ -> List.filteri (fun j _ -> j <> i) configs)
        configs
  in
  let rebuild ~white ~black =
    Problem.make ~name:p.Problem.name ~alphabet:p.Problem.alphabet
      ~white:(Constr.make ~arity:(Constr.arity p.Problem.white) white)
      ~black:(Constr.make ~arity:(Constr.arity p.Problem.black) black)
  in
  let whites = Constr.configs p.Problem.white
  and blacks = Constr.configs p.Problem.black in
  List.map (fun w -> rebuild ~white:w ~black:blacks) (drop_each whites)
  @ List.map (fun b -> rebuild ~white:whites ~black:b) (drop_each blacks)

let print_problem (p : Problem.t) = Problem.to_string p

(* Condensed query: one non-empty label set per position. *)
let query ~positions ~labels g =
  List.init positions (fun _ ->
      let s = List.filter (fun _ -> Prng.bool g) labels in
      if s = [] then [ Prng.pick g labels ] else s)

(* A pair of problems with the same arity profile over shared label
   names: [dst] is either an independent random problem (mostly not a
   relaxation of [src]) or [src] with random configurations added to
   both sides (a relaxation, witnessed by the identity map). *)
let problem_pair ~d_white ~d_black g =
  let src = problem ~d_white ~d_black g in
  let dst =
    if Prng.bool g then problem ~d_white ~d_black g
    else
      let labels = List.init (Alphabet.size src.Problem.alphabet) (fun i -> i) in
      let widen c =
        let arity = Constr.arity c in
        Constr.make ~arity
          (Constr.configs c @ Constr.configs (constr ~arity ~labels g))
      in
      Problem.make ~name:"random-wider" ~alphabet:src.Problem.alphabet
        ~white:(widen src.Problem.white) ~black:(widen src.Problem.black)
  in
  (src, dst)

(* [p] re-parsed with its label names permuted: the same integer
   configurations, but label [i] now carries the name of label
   [perm i].  Equal to [p] up to renaming, yet a name-preserving map
   between the two is (usually) not a witness. *)
let permute_names g (p : Problem.t) =
  let names = Array.of_list (Alphabet.names p.Problem.alphabet) in
  let shuffled = Array.copy names in
  Prng.shuffle g shuffled;
  let rename = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace rename n shuffled.(i)) names;
  let map_tokens line =
    String.split_on_char ' ' line
    |> List.map (fun tok ->
           Option.value ~default:tok (Hashtbl.find_opt rename tok))
    |> String.concat " "
  in
  Problem.to_string p
  |> String.split_on_char '\n'
  |> List.map (fun line ->
         if String.length line > 7 && String.sub line 0 7 = "labels:" then
           "labels:" ^ map_tokens (String.sub line 7 (String.length line - 7))
         else if String.length line > 0 && line.[0] = ' ' then map_tokens line
         else line)
  |> String.concat "\n"
  |> Problem.of_string

(* ------------------------------------------------------------------ *)
(* slocal.bench/1 reports *)

module Bench_report = Slocal_analysis.Bench_report

(* A short string over bytes the JSON writer must escape or pass
   through unchanged: quotes, backslashes, control characters,
   non-ASCII. *)
let text g =
  String.init (Prng.int g 8) (fun _ ->
      match Prng.int g 4 with
      | 0 -> Prng.pick g [ '"'; '\\'; '\n'; '\001'; '/' ]
      | 1 -> Char.chr (Prng.int g 256)
      | _ -> Char.chr (Char.code 'a' + Prng.int g 26))

let signed_int g = if Prng.bool g then Prng.next g else -Prng.next g

let bench_report g : Bench_report.report =
  let opt f = if Prng.bool g then Some (f g) else None in
  let experiment _ =
    {
      Bench_report.id = text g;
      title = text g;
      wall_ns = signed_int g;
      alloc_b = opt signed_int;
      minor_n = opt signed_int;
      major_n = opt signed_int;
      counters = List.init (Prng.int g 4) (fun _ -> (text g, signed_int g));
    }
  in
  {
    mode = text g;
    quick = Prng.bool g;
    experiments = List.init (Prng.int g 5) experiment;
    benchmarks =
      List.init (Prng.int g 3) (fun _ -> (text g, Prng.float g 1e9 -. 1e3));
  }

(* A corrupted copy of [doc]: truncated, a few bytes overwritten, a
   span deleted, or a span duplicated. *)
let corrupt docs g =
  let doc = Prng.pick g docs in
  let n = String.length doc in
  let i = Prng.int g (n + 1) in
  let j = min n (i + Prng.int g 64) in
  match Prng.int g 4 with
  | 0 -> String.sub doc 0 i
  | 1 ->
      let b = Bytes.of_string doc in
      for _ = 0 to Prng.int g 4 do
        if n > 0 then
          Bytes.set b (Prng.int g n)
            (if Prng.bool g then Prng.pick g [ '{'; '}'; '"'; ','; ':'; '0' ]
             else Char.chr (Prng.int g 256))
      done;
      Bytes.to_string b
  | 2 -> String.sub doc 0 i ^ String.sub doc j (n - j)
  | _ -> String.sub doc 0 j ^ String.sub doc i (n - i)
