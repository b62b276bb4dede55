(* Unit and property tests for the util substrate: multisets, bitsets,
   combinatorics, and the PRNG. *)

module Multiset = Slocal_util.Multiset
module Bitset = Slocal_util.Bitset
module Combinat = Slocal_util.Combinat
module Prng = Slocal_util.Prng

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let int_list = Alcotest.list Alcotest.int

(* ------------------------------------------------------------------ *)
(* Multiset *)

let ms = Multiset.of_list

let test_multiset_basics () =
  check int_list "of_list sorts" [ 1; 2; 2; 5 ] (Multiset.to_list (ms [ 5; 2; 1; 2 ]));
  check int_t "size" 4 (Multiset.size (ms [ 5; 2; 1; 2 ]));
  check int_t "count" 2 (Multiset.count 2 (ms [ 5; 2; 1; 2 ]));
  check bool_t "mem" true (Multiset.mem 5 (ms [ 5; 2; 1; 2 ]));
  check bool_t "not mem" false (Multiset.mem 3 (ms [ 5; 2; 1; 2 ]));
  check int_list "support" [ 1; 2; 5 ] (Multiset.support (ms [ 5; 2; 1; 2 ]))

let test_multiset_add_remove () =
  let m = ms [ 1; 3 ] in
  check int_list "add keeps order" [ 1; 2; 3 ] (Multiset.to_list (Multiset.add 2 m));
  check int_list "remove one copy" [ 1; 2 ]
    (Multiset.to_list (Multiset.remove 2 (ms [ 1; 2; 2 ])));
  Alcotest.check_raises "remove missing" Not_found (fun () ->
      ignore (Multiset.remove 9 m))

let test_multiset_subset () =
  check bool_t "subset yes" true (Multiset.subset (ms [ 1; 2 ]) (ms [ 1; 2; 2; 3 ]));
  check bool_t "multiplicity matters" false
    (Multiset.subset (ms [ 2; 2; 2 ]) (ms [ 1; 2; 2; 3 ]));
  check bool_t "empty subset" true (Multiset.subset Multiset.empty (ms [ 1 ]));
  check bool_t "not subset" false (Multiset.subset (ms [ 4 ]) (ms [ 1; 2 ]))

let test_multiset_diff_union () =
  check int_list "union" [ 1; 1; 2; 3 ]
    (Multiset.to_list (Multiset.union (ms [ 1; 2 ]) (ms [ 1; 3 ])));
  check int_list "diff" [ 2 ]
    (Multiset.to_list (Multiset.diff (ms [ 1; 2; 2 ]) (ms [ 1; 2 ])));
  check int_list "diff saturates" []
    (Multiset.to_list (Multiset.diff (ms [ 1 ]) (ms [ 1; 1 ])))

let test_sub_multisets () =
  let subs = Multiset.sub_multisets 2 (ms [ 1; 1; 2 ]) in
  let as_lists = List.map Multiset.to_list subs |> List.sort compare in
  check
    (Alcotest.list int_list)
    "sub_multisets distinct" [ [ 1; 1 ]; [ 1; 2 ] ] as_lists;
  check int_t "sub_multisets size 0" 1
    (List.length (Multiset.sub_multisets 0 (ms [ 1; 2 ])));
  check int_t "sub_multisets too big" 0
    (List.length (Multiset.sub_multisets 3 (ms [ 1; 2 ])))

let prop_sub_multisets_count =
  QCheck.Test.make ~name:"sub_multisets of distinct elements = binomial" ~count:100
    QCheck.(pair (int_bound 8) (int_bound 8))
    (fun (n, k) ->
      let m = ms (List.init n (fun i -> i)) in
      List.length (Multiset.sub_multisets k m) = Combinat.choose n k)

let prop_multiset_roundtrip =
  QCheck.Test.make ~name:"of_list/to_list is sorting" ~count:200
    QCheck.(small_list small_nat)
    (fun xs -> Multiset.to_list (ms xs) = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basics () =
  let s = Bitset.of_list [ 0; 3; 5 ] in
  check int_list "to_list" [ 0; 3; 5 ] (Bitset.to_list s);
  check int_t "cardinal" 3 (Bitset.cardinal s);
  check bool_t "mem" true (Bitset.mem 3 s);
  check bool_t "not mem" false (Bitset.mem 1 s);
  check int_t "choose smallest" 0 (Bitset.choose s);
  check int_list "full" [ 0; 1; 2 ] (Bitset.to_list (Bitset.full 3))

let test_bitset_ops () =
  let a = Bitset.of_list [ 0; 1 ] and b = Bitset.of_list [ 1; 2 ] in
  check int_list "union" [ 0; 1; 2 ] (Bitset.to_list (Bitset.union a b));
  check int_list "inter" [ 1 ] (Bitset.to_list (Bitset.inter a b));
  check int_list "diff" [ 0 ] (Bitset.to_list (Bitset.diff a b));
  check bool_t "subset" true (Bitset.subset (Bitset.of_list [ 1 ]) a);
  check bool_t "not subset" false (Bitset.subset a b);
  check bool_t "disjoint" true
    (Bitset.disjoint (Bitset.of_list [ 0 ]) (Bitset.of_list [ 2 ]))

let test_bitset_subsets () =
  let s = Bitset.of_list [ 1; 4 ] in
  check int_t "subsets count" 4 (List.length (Bitset.subsets s));
  check int_t "nonempty subsets count" 3 (List.length (Bitset.nonempty_subsets s));
  List.iter
    (fun sub -> check bool_t "subset of s" true (Bitset.subset sub s))
    (Bitset.subsets s)

let prop_bitset_subsets_count =
  QCheck.Test.make ~name:"2^n subsets" ~count:50
    QCheck.(int_bound 10)
    (fun n ->
      let s = Bitset.full n in
      List.length (Bitset.subsets s) = 1 lsl n)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/to_list" ~count:200
    QCheck.(small_list (int_bound 20))
    (fun xs -> Bitset.to_list (Bitset.of_list xs) = List.sort_uniq compare xs)

(* The bit-walking traversals are pinned to the list-based semantics:
   each must behave exactly as the same List function over [to_list]
   (ascending element order — [fold] and [iter] observe it). *)
let bitset_gen = QCheck.(map (fun xs -> Bitset.of_list xs) (small_list (int_bound 20)))

let prop_bitset_fold_is_list_fold =
  QCheck.Test.make ~name:"bitset fold = List.fold_left over to_list" ~count:200
    bitset_gen
    (fun s ->
      Bitset.fold (fun i acc -> i :: acc) s []
      = List.fold_left (fun acc i -> i :: acc) [] (Bitset.to_list s))

let prop_bitset_iter_is_list_iter =
  QCheck.Test.make ~name:"bitset iter = List.iter over to_list" ~count:200
    bitset_gen
    (fun s ->
      let seen = ref [] in
      Bitset.iter (fun i -> seen := i :: !seen) s;
      List.rev !seen = Bitset.to_list s)

let prop_bitset_quantifiers_are_list_quantifiers =
  QCheck.Test.make ~name:"bitset for_all/exists = List for_all/exists"
    ~count:200
    QCheck.(pair bitset_gen (int_bound 20))
    (fun (s, k) ->
      let p i = i mod (k + 1) = 0 in
      Bitset.for_all p s = List.for_all p (Bitset.to_list s)
      && Bitset.exists p s = List.exists p (Bitset.to_list s))

let prop_bitset_filter_is_list_filter =
  QCheck.Test.make ~name:"bitset filter = List.filter over to_list" ~count:200
    QCheck.(pair bitset_gen (int_bound 20))
    (fun (s, k) ->
      let p i = i mod (k + 1) = 0 in
      Bitset.to_list (Bitset.filter p s) = List.filter p (Bitset.to_list s))

let prop_bitset_compare_total_order =
  QCheck.Test.make ~name:"bitset compare is a total order consistent with equal"
    ~count:200
    QCheck.(pair bitset_gen bitset_gen)
    (fun (a, b) ->
      (Bitset.compare a b = 0) = Bitset.equal a b
      && Bitset.compare a b = -Bitset.compare b a)

(* ------------------------------------------------------------------ *)
(* Packed configuration keys *)

module Config_key = Slocal_util.Config_key

let small_multiset_gen =
  QCheck.(map (fun xs -> ms xs) (list_of_size Gen.(0 -- 6) (int_bound 6)))

let prop_pack_injective =
  QCheck.Test.make ~name:"Multiset.pack is injective on same-size multisets"
    ~count:500
    QCheck.(pair small_multiset_gen small_multiset_gen)
    (fun (a, b) ->
      let bits = Slocal_util.Config_key.bits_for 7 in
      match (Multiset.pack ~bits a, Multiset.pack ~bits b) with
      | Some ka, Some kb ->
          if Multiset.equal a b then ka = kb
          else Multiset.size a <> Multiset.size b || ka <> kb
      | _ -> false (* 7 labels × ≤6 copies always fits a word *))

let prop_config_key_equal_hash =
  QCheck.Test.make ~name:"Config_key equal implies equal hash" ~count:500
    QCheck.(pair small_multiset_gen small_multiset_gen)
    (fun (a, b) ->
      let bits = Config_key.bits_for 7 in
      let ka = Config_key.of_multiset ~bits a
      and kb = Config_key.of_multiset ~bits b in
      Config_key.equal ka kb = Multiset.equal a b
      && ((not (Config_key.equal ka kb)) || Config_key.hash ka = Config_key.hash kb))

(* ------------------------------------------------------------------ *)
(* Combinat *)

let test_choose () =
  check int_t "choose 5 2" 10 (Combinat.choose 5 2);
  check int_t "choose n 0" 1 (Combinat.choose 7 0);
  check int_t "choose n n" 1 (Combinat.choose 7 7);
  check int_t "choose out of range" 0 (Combinat.choose 3 5);
  check int_t "multichoose 3 2" 6 (Combinat.multichoose 3 2)

let test_subsets_of_size () =
  let subs = Combinat.subsets_of_size 2 [ 1; 2; 3 ] in
  check
    (Alcotest.list int_list)
    "subsets of size 2"
    [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    subs;
  check int_t "empty for oversize" 0
    (List.length (Combinat.subsets_of_size 4 [ 1; 2; 3 ]));
  (* The recursion stops once fewer than k elements remain, so taking
     all 32 of 32 is one walk down the list, not 2^32 calls. *)
  check int_t "subsets_of_size 32 of 32" 1
    (List.length (Combinat.subsets_of_size 32 (List.init 32 Fun.id)))

let test_multisets_of_size () =
  let subs = Combinat.multisets_of_size 2 [ 1; 2 ] |> List.sort compare in
  check (Alcotest.list int_list) "multisets" [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 2 ] ] subs

let prop_multisets_count =
  QCheck.Test.make ~name:"multisets_of_size count" ~count:50
    QCheck.(pair (int_range 1 6) (int_bound 5))
    (fun (n, k) ->
      let xs = List.init n (fun i -> i) in
      List.length (Combinat.multisets_of_size k xs) = Combinat.multichoose n k)

let test_cartesian () =
  check int_t "cartesian size" 6
    (List.length (Combinat.cartesian [ [ 1; 2 ]; [ 3; 4; 5 ] ]));
  check (Alcotest.list int_list) "cartesian empty factor" []
    (Combinat.cartesian [ [ 1 ]; [] ]);
  check (Alcotest.list int_list) "cartesian of nothing" [ [] ] (Combinat.cartesian [])

let test_cartesian_quantifiers () =
  let ls = [ [ 1; 2 ]; [ 3; 4 ] ] in
  check bool_t "exists" true (Combinat.cartesian_exists (fun t -> t = [ 2; 3 ]) ls);
  check bool_t "not exists" false
    (Combinat.cartesian_exists (fun t -> t = [ 3; 3 ]) ls);
  check bool_t "for_all" true
    (Combinat.cartesian_for_all (fun t -> List.length t = 2) ls);
  check bool_t "not for_all" false
    (Combinat.cartesian_for_all (fun t -> List.hd t = 1) ls)

let test_permutations () =
  check int_t "3! permutations" 6 (List.length (Combinat.permutations [ 1; 2; 3 ]));
  check int_t "positional duplicates" 2 (List.length (Combinat.permutations [ 1; 1 ]));
  check (Alcotest.list int_list) "empty" [ [] ] (Combinat.permutations [])

let test_fold_tuples () =
  let count = Combinat.fold_tuples 3 2 ~init:0 ~f:(fun acc _ -> acc + 1) in
  check int_t "3^2 tuples" 9 count;
  let sum =
    Combinat.fold_tuples 2 3 ~init:0 ~f:(fun acc t -> acc + List.fold_left ( + ) 0 t)
  in
  check int_t "sum over tuples" 12 sum

let test_pairs () =
  check int_t "pairs of 4" 6 (List.length (Combinat.pairs [ 1; 2; 3; 4 ]))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 10 (fun _ -> Prng.next a) in
  let ys = List.init 10 (fun _ -> Prng.next b) in
  check (Alcotest.list int_t) "same seed, same stream" xs ys

let test_prng_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    if x < 0 || x >= 10 then Alcotest.fail "Prng.int out of bounds"
  done

let test_prng_split () =
  let g = Prng.create 1 in
  let h = Prng.split g in
  let xs = List.init 5 (fun _ -> Prng.next g) in
  let ys = List.init 5 (fun _ -> Prng.next h) in
  check bool_t "split streams differ" true (xs <> ys)

let test_prng_shuffle () =
  let g = Prng.create 3 in
  let a = Array.init 20 (fun i -> i) in
  Prng.shuffle g a;
  check int_list "shuffle is a permutation"
    (List.init 20 (fun i -> i))
    (List.sort compare (Array.to_list a))

let test_prng_float () =
  let g = Prng.create 11 in
  for _ = 1 to 100 do
    let x = Prng.float g 1.0 in
    if x < 0. || x >= 1. then Alcotest.fail "Prng.float out of range"
  done

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sub_multisets_count;
      prop_multiset_roundtrip;
      prop_bitset_subsets_count;
      prop_bitset_roundtrip;
      prop_bitset_fold_is_list_fold;
      prop_bitset_iter_is_list_iter;
      prop_bitset_quantifiers_are_list_quantifiers;
      prop_bitset_filter_is_list_filter;
      prop_bitset_compare_total_order;
      prop_pack_injective;
      prop_config_key_equal_hash;
      prop_multisets_count;
    ]

let () =
  Alcotest.run "util"
    [
      ( "multiset",
        [
          Alcotest.test_case "basics" `Quick test_multiset_basics;
          Alcotest.test_case "add/remove" `Quick test_multiset_add_remove;
          Alcotest.test_case "subset" `Quick test_multiset_subset;
          Alcotest.test_case "diff/union" `Quick test_multiset_diff_union;
          Alcotest.test_case "sub_multisets" `Quick test_sub_multisets;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "ops" `Quick test_bitset_ops;
          Alcotest.test_case "subsets" `Quick test_bitset_subsets;
        ] );
      ( "combinat",
        [
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "subsets_of_size" `Quick test_subsets_of_size;
          Alcotest.test_case "multisets_of_size" `Quick test_multisets_of_size;
          Alcotest.test_case "cartesian" `Quick test_cartesian;
          Alcotest.test_case "cartesian quantifiers" `Quick test_cartesian_quantifiers;
          Alcotest.test_case "permutations" `Quick test_permutations;
          Alcotest.test_case "fold_tuples" `Quick test_fold_tuples;
          Alcotest.test_case "pairs" `Quick test_pairs;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
          Alcotest.test_case "float" `Quick test_prng_float;
        ] );
      ("properties", qsuite);
    ]
