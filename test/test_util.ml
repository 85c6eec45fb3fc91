(* Unit and property tests for the utility layer: canonical sorted sets,
   the deterministic RNG, permutations, graphs and growable vectors. *)

open Repro_util

let iset = Alcotest.testable (Fmt.of_to_string Iset.to_string) Iset.equal
let s l = Iset.of_list l

(* --- Iset / Sorted_set ------------------------------------------------- *)

let test_of_list_dedup_sorts () =
  Alcotest.check iset "dedup+sort" (s [ 1; 2; 3 ]) (Iset.of_list [ 3; 1; 2; 3; 1 ])

let test_union () =
  Alcotest.check iset "union" (s [ 1; 2; 3; 4 ]) (Iset.union (s [ 1; 3 ]) (s [ 2; 3; 4 ]));
  Alcotest.check iset "union empty" (s [ 1 ]) (Iset.union Iset.empty (s [ 1 ]))

let test_inter_diff () =
  Alcotest.check iset "inter" (s [ 2; 3 ]) (Iset.inter (s [ 1; 2; 3 ]) (s [ 2; 3; 4 ]));
  Alcotest.check iset "diff" (s [ 1 ]) (Iset.diff (s [ 1; 2; 3 ]) (s [ 2; 3; 4 ]))

let test_subset () =
  Alcotest.(check bool) "subset yes" true (Iset.subset (s [ 1; 3 ]) (s [ 1; 2; 3 ]));
  Alcotest.(check bool) "subset no" false (Iset.subset (s [ 1; 4 ]) (s [ 1; 2; 3 ]));
  Alcotest.(check bool) "strict no (equal)" false
    (Iset.strict_subset (s [ 1; 2 ]) (s [ 1; 2 ]));
  Alcotest.(check bool) "comparable both ways" true
    (Iset.comparable (s [ 1; 2; 3 ]) (s [ 1; 2 ]));
  Alcotest.(check bool) "incomparable" false
    (Iset.comparable (s [ 1; 2 ]) (s [ 1; 3 ]))

let test_rank () =
  Alcotest.(check (option int)) "rank first" (Some 1) (Iset.rank 2 (s [ 2; 5; 9 ]));
  Alcotest.(check (option int)) "rank mid" (Some 2) (Iset.rank 5 (s [ 2; 5; 9 ]));
  Alcotest.(check (option int)) "rank absent" None (Iset.rank 4 (s [ 2; 5; 9 ]))

let test_bits_roundtrip () =
  let sets = [ []; [ 0 ]; [ 7 ]; [ 1; 3; 5 ]; [ 0; 1; 2; 3; 4; 5; 6; 7 ] ] in
  List.iter
    (fun l ->
      Alcotest.check iset "roundtrip" (s l) (Iset.of_bits (Iset.to_bits (s l))))
    sets;
  Alcotest.check_raises "negative element rejected"
    (Invalid_argument "Iset.to_bits: element out of range") (fun () ->
      ignore (Iset.to_bits (s [ -1 ])))

let test_structural_equality_is_canonical () =
  (* The property the model checker depends on: structurally equal iff
     set-equal, and polymorphic hash agrees. *)
  let a = Iset.add 1 (Iset.add 3 (Iset.add 2 Iset.empty)) in
  let b = Iset.union (s [ 3 ]) (Iset.of_list [ 2; 1 ]) in
  Alcotest.(check bool) "physeq-free structural equality" true (a = b);
  Alcotest.(check int) "hash agrees" (Hashtbl.hash a) (Hashtbl.hash b)

let iset_gen =
  QCheck.Gen.(map Iset.of_list (list_size (int_bound 8) (int_bound 7)))

let arb_iset = QCheck.make ~print:Iset.to_string iset_gen

let prop_union_commutative =
  QCheck.Test.make ~name:"union commutative" ~count:500
    (QCheck.pair arb_iset arb_iset) (fun (a, b) ->
      Iset.equal (Iset.union a b) (Iset.union b a))

let prop_union_assoc =
  QCheck.Test.make ~name:"union associative" ~count:500
    (QCheck.triple arb_iset arb_iset arb_iset) (fun (a, b, c) ->
      Iset.equal (Iset.union a (Iset.union b c)) (Iset.union (Iset.union a b) c))

let prop_subset_antisym =
  QCheck.Test.make ~name:"subset antisymmetric" ~count:500
    (QCheck.pair arb_iset arb_iset) (fun (a, b) ->
      QCheck.assume (Iset.subset a b && Iset.subset b a);
      Iset.equal a b)

let prop_diff_inter_partition =
  QCheck.Test.make ~name:"diff+inter partition" ~count:500
    (QCheck.pair arb_iset arb_iset) (fun (a, b) ->
      Iset.equal a (Iset.union (Iset.diff a b) (Iset.inter a b)))

let prop_mem_add =
  QCheck.Test.make ~name:"mem after add" ~count:500
    (QCheck.pair QCheck.(int_bound 7) arb_iset) (fun (x, a) ->
      Iset.mem x (Iset.add x a))

let prop_cardinal_monotone =
  QCheck.Test.make ~name:"union cardinality bounds" ~count:500
    (QCheck.pair arb_iset arb_iset) (fun (a, b) ->
      let u = Iset.cardinal (Iset.union a b) in
      u >= max (Iset.cardinal a) (Iset.cardinal b)
      && u <= Iset.cardinal a + Iset.cardinal b)

(* --- Bits ---------------------------------------------------------------- *)

(* The table-driven popcount/ctz/nth_set agree with the SWAR path on
   [mask]: every [k]-th set bit, and the lowest one. *)
let bits_agree mask =
  let n = Bits.popcount mask in
  n = Bits.Swar.popcount mask
  && (mask = 0 || Bits.ctz mask = Bits.Swar.ctz mask)
  && List.for_all
       (fun k -> Bits.nth_set mask k = Bits.Swar.nth_set mask k)
       (List.init n Fun.id)

let test_bits_tables_exhaustive () =
  (* Every mask of 12 bits: all 256 table rows, and the masks just past
     them that take the SWAR path. *)
  for mask = 0 to (1 lsl 12) - 1 do
    if not (bits_agree mask) then Alcotest.failf "mask %#x" mask
  done

let prop_bits_tables_wide =
  QCheck.Test.make ~name:"table path = SWAR path up to max_width bits"
    ~count:2000
    QCheck.(
      make ~print:(Printf.sprintf "%#x")
        Gen.(map2 (fun w x -> x land Bits.full w) (int_range 0 Bits.max_width) int))
    bits_agree

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 13)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let child = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int child 100) in
  let ys = List.init 10 (fun _ -> Rng.int a 100) in
  Alcotest.(check bool) "child differs from parent continuation" true (xs <> ys)

let test_rng_permutation_valid () =
  let rng = Rng.create ~seed:5 in
  for n = 1 to 10 do
    let p = Rng.permutation rng n in
    let sorted = Array.copy p in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "is permutation" (Array.init n Fun.id) sorted
  done

(* --- Permutation -------------------------------------------------------- *)

let test_permutation_inverse () =
  let p = Permutation.of_list [ 2; 0; 3; 1 ] in
  let inv = Permutation.inverse p in
  for i = 0 to 3 do
    Alcotest.(check int) "inv∘p = id" i (Permutation.apply inv (Permutation.apply p i))
  done

let test_permutation_compose () =
  let p = Permutation.of_list [ 1; 2; 0 ] in
  let q = Permutation.of_list [ 2; 1; 0 ] in
  let pq = Permutation.compose p q in
  for i = 0 to 2 do
    Alcotest.(check int) "compose"
      (Permutation.apply p (Permutation.apply q i))
      (Permutation.apply pq i)
  done

let test_permutation_enumerate () =
  Alcotest.(check int) "3! = 6" 6 (List.length (Permutation.enumerate 3));
  Alcotest.(check int) "4! = 24" 24 (List.length (Permutation.enumerate 4));
  let all = Permutation.enumerate 3 in
  let distinct = List.sort_uniq compare (List.map Permutation.to_list all) in
  Alcotest.(check int) "all distinct" 6 (List.length distinct)

let perm_of_seed n seed = Permutation.random (Rng.create ~seed) n

let arb_perm =
  QCheck.make
    ~print:(fun (n, seed) -> Fmt.str "%a" Permutation.pp (perm_of_seed n seed))
    QCheck.Gen.(pair (int_range 1 8) (int_bound 1_000_000))

(* Two independent permutations of the same size. *)
let arb_perm_pair =
  QCheck.make
    ~print:(fun (n, s1, s2) ->
      Fmt.str "%a, %a" Permutation.pp (perm_of_seed n s1) Permutation.pp
        (perm_of_seed n s2))
    QCheck.Gen.(triple (int_range 1 8) (int_bound 1_000_000) (int_bound 1_000_000))

let prop_perm_inverse_roundtrip =
  QCheck.Test.make ~name:"p . p^-1 = p^-1 . p = id" ~count:500 arb_perm
    (fun (n, seed) ->
      let p = perm_of_seed n seed in
      let id = Permutation.identity n in
      Permutation.equal (Permutation.compose p (Permutation.inverse p)) id
      && Permutation.equal (Permutation.compose (Permutation.inverse p) p) id)

let prop_perm_inverse_involutive =
  QCheck.Test.make ~name:"(p^-1)^-1 = p" ~count:500 arb_perm (fun (n, seed) ->
      let p = perm_of_seed n seed in
      Permutation.equal (Permutation.inverse (Permutation.inverse p)) p)

let prop_perm_compose_apply =
  QCheck.Test.make ~name:"apply (compose f g) = apply f . apply g" ~count:500
    arb_perm_pair (fun (n, s1, s2) ->
      let f = perm_of_seed n s1 and g = perm_of_seed n s2 in
      let fg = Permutation.compose f g in
      List.for_all
        (fun i ->
          Permutation.apply fg i = Permutation.apply f (Permutation.apply g i))
        (List.init n Fun.id))

let prop_perm_inverse_antihomomorphism =
  QCheck.Test.make ~name:"(f . g)^-1 = g^-1 . f^-1" ~count:500 arb_perm_pair
    (fun (n, s1, s2) ->
      let f = perm_of_seed n s1 and g = perm_of_seed n s2 in
      Permutation.equal
        (Permutation.inverse (Permutation.compose f g))
        (Permutation.compose (Permutation.inverse g) (Permutation.inverse f)))

let prop_perm_compose_roundtrip =
  QCheck.Test.make ~name:"compose then undo recovers g" ~count:500
    arb_perm_pair (fun (n, s1, s2) ->
      let f = perm_of_seed n s1 and g = perm_of_seed n s2 in
      Permutation.equal
        (Permutation.compose (Permutation.inverse f) (Permutation.compose f g))
        g)

let test_permutation_invalid () =
  Alcotest.check_raises "dup" (Invalid_argument "Permutation.of_array: not a permutation")
    (fun () -> ignore (Permutation.of_list [ 0; 0; 1 ]));
  Alcotest.check_raises "range" (Invalid_argument "Permutation.of_array: not a permutation")
    (fun () -> ignore (Permutation.of_list [ 0; 3 ]))

(* --- Digraph ------------------------------------------------------------ *)

let test_digraph_sources () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 1 3;
  Alcotest.(check (list int)) "single source" [ 0 ] (Digraph.sources g);
  Alcotest.(check bool) "acyclic" true (Digraph.is_acyclic g)

let test_digraph_cycle () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 0;
  Alcotest.(check bool) "cyclic" false (Digraph.is_acyclic g);
  let _, count = Digraph.scc_ids g in
  Alcotest.(check int) "one SCC" 1 count

let test_digraph_sccs () =
  (* two 2-cycles joined by a bridge plus an isolated vertex *)
  let g = Digraph.create 5 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 0;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 3 2;
  let comp, count = Digraph.scc_ids g in
  Alcotest.(check int) "3 SCCs" 3 count;
  Alcotest.(check bool) "0,1 together" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "2,3 together" true (comp.(2) = comp.(3));
  Alcotest.(check bool) "bridge separates" true (comp.(1) <> comp.(2))

let test_digraph_self_loop () =
  let g = Digraph.create 2 in
  Digraph.add_edge g 0 0;
  Alcotest.(check bool) "self loop not acyclic" false (Digraph.is_acyclic g);
  Alcotest.(check bool) "has_self_loop" true (Digraph.has_self_loop g 0);
  Alcotest.(check bool) "no self loop on 1" false (Digraph.has_self_loop g 1)

let test_digraph_reachable () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 2 3;
  let r = Digraph.reachable_from g [ 0 ] in
  Alcotest.(check bool) "0 reaches 1" true r.(1);
  Alcotest.(check bool) "0 misses 3" false r.(3)

(* --- Vec ---------------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 999 do
    Alcotest.(check int) "index returned" i (Vec.push v (i * i))
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "get" (25 * 25) (Vec.get v 25);
  Vec.set v 25 7;
  Alcotest.(check int) "set" 7 (Vec.get v 25);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1000))

let test_vec_to_array () =
  let v = Vec.create () in
  List.iter (fun x -> ignore (Vec.push v x)) [ 3; 1; 4 ];
  Alcotest.(check (array int)) "to_array" [| 3; 1; 4 |] (Vec.to_array v)

(* --- Stats ---------------------------------------------------------------- *)

let test_stats_summary () =
  match Stats.summarize [ 5; 1; 3; 2; 4 ] with
  | None -> Alcotest.fail "non-empty"
  | Some s ->
      Alcotest.(check int) "count" 5 s.Stats.count;
      Alcotest.(check int) "min" 1 s.Stats.min;
      Alcotest.(check int) "max" 5 s.Stats.max;
      Alcotest.(check int) "median" 3 s.Stats.median;
      Alcotest.(check (float 0.001)) "mean" 3.0 s.Stats.mean

let test_stats_empty () =
  Alcotest.(check bool) "empty summarize" true (Stats.summarize [] = None);
  Alcotest.(check bool) "empty median" true (Stats.median [] = None)

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> i + 1) in
  Alcotest.(check (option int)) "p50 of 1..100" (Some 50) (Stats.percentile 0.5 xs);
  Alcotest.(check (option int)) "p90" (Some 90) (Stats.percentile 0.9 xs);
  Alcotest.(check (option int)) "p100" (Some 100) (Stats.percentile 1.0 xs);
  Alcotest.(check (option int)) "singleton" (Some 7) (Stats.percentile 0.9 [ 7 ])

let prop_median_is_member =
  QCheck.Test.make ~name:"median is a member" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) small_nat)
    (fun xs ->
      match Stats.median xs with Some m -> List.mem m xs | None -> false)

let prop_summary_bounds =
  QCheck.Test.make ~name:"min <= median <= p90 <= max" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) small_nat)
    (fun xs ->
      match Stats.summarize xs with
      | None -> false
      | Some s ->
          s.Stats.min <= s.Stats.median
          && s.Stats.median <= s.Stats.p90
          && s.Stats.p90 <= s.Stats.max)

(* --- Digraph properties ----------------------------------------------------- *)

let prop_forward_edges_acyclic =
  QCheck.Test.make ~name:"graphs with only forward edges are acyclic" ~count:200
    QCheck.(pair (int_range 2 15) (list (pair (int_bound 14) (int_bound 14))))
    (fun (n, edges) ->
      let g = Digraph.create n in
      List.iter
        (fun (a, b) ->
          let a = a mod n and b = b mod n in
          if a < b then Digraph.add_edge g a b)
        edges;
      Digraph.is_acyclic g)

let prop_scc_condensation_sound =
  QCheck.Test.make ~name:"SCC ids: edge endpoints in same or earlier component"
    ~count:200
    QCheck.(pair (int_range 2 12) (list (pair (int_bound 11) (int_bound 11))))
    (fun (n, edges) ->
      let g = Digraph.create n in
      List.iter
        (fun (a, b) -> Digraph.add_edge g (a mod n) (b mod n))
        edges;
      let comp, count = Digraph.scc_ids g in
      Array.for_all (fun c -> c >= 0 && c < count) comp
      (* reverse topological numbering: an edge u->v has comp u >= comp v *)
      && List.for_all
           (fun v ->
             List.for_all (fun w -> comp.(v) >= comp.(w)) (Digraph.successors g v))
           (List.init n Fun.id))

(* --- Text_table ---------------------------------------------------------- *)

let test_table_render () =
  let t = Text_table.create ~headers:[ "a"; "bb" ] in
  Text_table.add_row t [ "xxx"; "y" ];
  Text_table.add_row t [ "z" ];
  let out = Text_table.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  Alcotest.(check int) "4 lines" 4
    (List.length (String.split_on_char '\n' (String.trim out)));
  Alcotest.check_raises "too wide"
    (Invalid_argument "Text_table.add_row: row wider than header") (fun () ->
      Text_table.add_row t [ "1"; "2"; "3" ])

let () =
  Alcotest.run "util"
    [
      ( "iset",
        [
          Alcotest.test_case "of_list dedups and sorts" `Quick test_of_list_dedup_sorts;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "inter and diff" `Quick test_inter_diff;
          Alcotest.test_case "subset and comparability" `Quick test_subset;
          Alcotest.test_case "rank" `Quick test_rank;
          Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "canonical structural equality" `Quick
            test_structural_equality_is_canonical;
        ] );
      ( "iset-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_union_commutative;
            prop_union_assoc;
            prop_subset_antisym;
            prop_diff_inter_partition;
            prop_mem_add;
            prop_cardinal_monotone;
          ] );
      ( "bits",
        [
          Alcotest.test_case "tables = SWAR below 2^12" `Quick
            test_bits_tables_exhaustive;
          QCheck_alcotest.to_alcotest prop_bits_tables_wide;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "permutation valid" `Quick test_rng_permutation_valid;
        ] );
      ( "permutation",
        [
          Alcotest.test_case "inverse" `Quick test_permutation_inverse;
          Alcotest.test_case "compose" `Quick test_permutation_compose;
          Alcotest.test_case "enumerate" `Quick test_permutation_enumerate;
          Alcotest.test_case "invalid rejected" `Quick test_permutation_invalid;
        ] );
      ( "permutation-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_perm_inverse_roundtrip;
            prop_perm_inverse_involutive;
            prop_perm_compose_apply;
            prop_perm_inverse_antihomomorphism;
            prop_perm_compose_roundtrip;
          ] );
      ( "digraph",
        [
          Alcotest.test_case "sources" `Quick test_digraph_sources;
          Alcotest.test_case "cycle detection" `Quick test_digraph_cycle;
          Alcotest.test_case "sccs" `Quick test_digraph_sccs;
          Alcotest.test_case "self loop" `Quick test_digraph_self_loop;
          Alcotest.test_case "reachability" `Quick test_digraph_reachable;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "to_array" `Quick test_vec_to_array;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          QCheck_alcotest.to_alcotest prop_median_is_member;
          QCheck_alcotest.to_alcotest prop_summary_bounds;
        ] );
      ( "digraph-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_forward_edges_acyclic; prop_scc_condensation_sound ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
    ]
