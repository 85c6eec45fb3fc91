(* The Section-8 claim: the Figure-3 algorithm solves the snapshot *task*
   but does not implement atomic memory snapshots — some execution returns
   a set of inputs the memory never contained.  The claim is existential;
   these tests exercise both search strategies and the machinery they rely
   on.  The heavy exhaustive searches live in bin/experiments.ml; here we
   keep bounded versions. *)

open Repro_util

let memory_set = Core.snapshot_memory_set

module S3 = Modelcheck.Snapshot3

let test_memory_set () =
  let v view level : Algorithms.Snapshot.value =
    { view = Iset.of_list view; level }
  in
  Alcotest.(check string) "union of views" "{1,2,3}"
    (Iset.to_string (memory_set [| v [ 1; 2 ] 0; v [ 3 ] 1; v [] 0 |]));
  Alcotest.(check string) "empty memory" "{}" (Iset.to_string (memory_set [||]))

let test_random_search_structure () =
  (* Uniform random schedules rarely produce the covering patterns the
     witness needs; whatever the bounded search returns must be internally
     consistent. *)
  match Core.find_nonatomic_execution ~n:3 ~attempts:300 () with
  | None -> ()
  | Some w ->
      (* the culprit's output must genuinely be absent from the memory
         sets seen *)
      Alcotest.(check bool) "output not among memory sets" true
        (not
           (List.exists
              (Iset.equal w.Core.Snapshot_witness.culprit_output)
              w.Core.Snapshot_witness.memory_sets_seen))

let identity = Anonmem.Wiring.identity ~n:3 ~m:3

let test_exhaustive_search_rejects_impossible_targets () =
  (* With inputs {1,2} only, a processor returns {1,2} only after
     writing it, which puts {1,2} in memory: the target is impossible,
     and the pruned search refutes it under both write orders. *)
  List.iter
    (fun write_order ->
      match
        S3.find_nonatomic ~write_order ~log2_capacity:23 ~inputs:[| 1; 1; 2 |]
          ~target_mask:0b011 ~wirings:[ identity ] ()
      with
      | S3.Refuted { states } ->
          Alcotest.(check bool) "explored something" true (states > 0)
      | _ -> Alcotest.fail "impossible target not refuted")
    [ S3.Cyclic; S3.Any ]

let test_full_table_is_undecided () =
  (* A table too small for the pruned space fills at 70% of 2^16 slots:
     that is no refutation, and the outcome says where it stopped. *)
  (match
     S3.find_nonatomic ~log2_capacity:16 ~inputs:[| 1; 1; 2 |]
       ~target_mask:0b001 ~wirings:[ identity; identity ] ()
   with
  | S3.Undecided { wiring; states } ->
      Alcotest.(check bool) "on the first wiring" true (wiring == identity);
      Alcotest.(check int) "where the table filled" 45_875 states
  | _ -> Alcotest.fail "full table reported as a verdict");
  match List.of_seq (Core.find_nonatomic_packed ~log2_capacity:16 ()) with
  | [ ((inputs, _, S3.Undecided _) as o) ] ->
      Alcotest.(check (array int)) "first candidate" [| 1; 1; 2 |] inputs;
      let line = Core.nonatomic_line o in
      Alcotest.(check bool) "reported as undecided" true
        (List.mem "undecided" (String.split_on_char ' ' line))
  | _ -> Alcotest.fail "Core did not stop at the undecided candidate"

let () =
  Alcotest.run "nonatomicity"
    [
      ( "section-8",
        [
          Alcotest.test_case "memory content set" `Quick test_memory_set;
          Alcotest.test_case "random search consistency" `Quick
            test_random_search_structure;
          Alcotest.test_case "exhaustive: impossible target" `Quick
            test_exhaustive_search_rejects_impossible_targets;
          Alcotest.test_case "exhaustive: full table is undecided" `Quick
            test_full_table_is_undecided;
        ] );
    ]
