(* Expected outputs, recorded with [bench.exe --print-goldens] (which
   rebuilds them from the library and prints this file's body).  They
   are renaming-invariant (canonical hashes, verdicts), so every seed's
   label permutation must reproduce them exactly.

   re_seq: the canonical hashes of Π_0 … Π_k per spec; every sequence
   verifies.  two_label_verdicts: for the bipartite cycle C_{2k}, one
   character per problem of [Zero_round.two_label_problems] ('1' 0-round
   solvable).  serve_solve/serve_audit: the daemon's solve outcome and
   audit certificate per (problem, graph). *)

let re_seq : (string * int list) list =
  [
    ("matching:3:0:1", [ 389110945; 1058005457; 707776313 ]);
    ("matching:4:0:1", [ 398846080; 239930371; 898926657 ]);
    ("matching:3:1:1", [ 676942271; 278005083; 842793922 ]);
    ("matching:3:0:2", [ 212991286; 278005083; 842793922 ]);
    ("matching:4:1:1", [ 728336346; 973869946 ]);
    ("matching:4:2:1", [ 609477455; 346386154 ]);
    ("matching:5:0:1", [ 77638650; 780157254 ]);
    ("mm:2", [ 952818265; 866533590; 166042721; 637669361 ]);
    ("mm:3", [ 433533171; 370531962; 125681193 ]);
    ("mm:4", [ 833992517; 265200371; 446222303 ]);
    ("mm:5", [ 1015878485; 542867962 ]);
    ("arb:2:2", [ 973176382; 973176382; 973176382; 973176382 ]);
    ("arb:2:3", [ 119632508; 637669361; 637669361 ]);
    ("arb:3:2", [ 365505178; 365505178; 365505178 ]);
    ("arb:3:3", [ 895696075; 895696075; 895696075 ]);
    ("arb:4:2", [ 263762150; 263762150; 263762150 ]);
    ("ruling:2:2:1", [ 1058422867; 29698086; 637669361; 637669361 ]);
    ("ruling:2:2:2", [ 93612932; 16242571 ]);
    ("ruling:2:3:1", [ 338527314; 637669361 ]);
    ("so:3", [ 998728882; 644777827; 644777827; 644777827 ]);
    ("so:4", [ 641546236; 487033294; 487033294 ]);
    ("so:5", [ 2547285; 905558673; 905558673 ]);
    ("so:6", [ 1049598666; 493353915 ]);
    ("col:2:2", [ 337412864; 337412864; 337412864; 337412864 ]);
    ("col:2:3", [ 176890134; 995471152 ]);
    ("col:3:2", [ 729914430; 729914430; 729914430 ]);
    ("col:3:3", [ 102732244; 515743261 ]);
    ("col:4:2", [ 788747092; 788747092; 788747092 ]);
    ("col:4:3", [ 1015157950; 368846271 ]);
  ]

let two_label_verdicts : (int * string) list =
  [
    (2, "1001101010111100101111101111111111101111111111111");
    (3, "1001101010101100101111101111101111101111111111111");
    (4, "1001101010111100101111101111111111101111111111111");
    (5, "1001101010101100101111101111101111101111111111111");
    (6, "1001101010111100101111101111111111101111111111111");
  ]

let serve_solve : ((string * string) * string) list =
  [
    (("col:2:2", "cycle:3"), "no_solution");
    (("col:2:2", "cycle:2"), "solution");
    (("mm:2", "cycle:4"), "solution");
  ]

let serve_audit : ((string * string) * string) list =
  [
    (("col:2:2", "cycle:3"), "unsolvable-by-search");
    (("col:2:2", "cycle:2"), "solvable");
  ]
