(* The Section-8 claim: the Figure-3 algorithm solves the snapshot *task*
   but does not implement atomic memory snapshots — some execution returns
   a set of inputs the memory never contained.  The claim is existential;
   these tests exercise both search strategies and the machinery they rely
   on.  The heavy exhaustive searches live in bin/experiments.ml; here we
   keep bounded versions. *)

open Repro_util

let memory_set = Core.snapshot_memory_set

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
     and the pruned search refutes it under both write orders.  The
     generic totals are pinned (the packed checker, which pins a halted
     processor's written-set, read 117,339 and 3,156,504). *)
  List.iter
    (fun (write_order, expected) ->
      match
        Core.search_nonatomic ~write_order ~wirings:[ identity ]
          ([| 1; 1; 2 |], Iset.of_list [ 1; 2 ])
      with
      | Core.Refuted { states } ->
          Alcotest.(check int) "states explored" expected states
      | _ -> Alcotest.fail "impossible target not refuted")
    [ (Algorithms.Snapshot.Cyclic, 121_397); (Any, 3_296_180) ]

let test_governor_trip_is_exhausted () =
  (* A quota trip is no refutation: the outcome says which wiring was in
     flight and how much the wirings before it explored. *)
  (match
     Core.search_nonatomic
       ~governor:(Modelcheck.Governor.create ~quota:1_000 ())
       ~write_order:Cyclic ~wirings:[ identity; identity ]
       ([| 1; 1; 2 |], Iset.of_list [ 1 ])
   with
  | Core.Exhausted { reason; wiring; states } ->
      Alcotest.(check string) "reason" "quota"
        (Modelcheck.Governor.reason_to_string reason);
      Alcotest.(check bool) "on the first wiring" true (wiring == identity);
      Alcotest.(check int) "no wiring finished" 0 states
  | _ -> Alcotest.fail "a governor trip reported as a verdict");
  let governor = Modelcheck.Governor.create ~quota:1_000 () in
  match List.of_seq (Core.find_nonatomic ~governor ~write_order:Cyclic ()) with
  | [ ((inputs, _, Core.Exhausted _) as o) ] ->
      Alcotest.(check (array int)) "first candidate" [| 1; 1; 2 |] inputs;
      let line = Core.nonatomic_line o in
      Alcotest.(check bool) "reported as exhausted" true
        (List.mem "exhausted" (String.split_on_char ' ' line))
  | _ -> Alcotest.fail "Core did not stop at the exhausted candidate"

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
          Alcotest.test_case "exhaustive: governor trip is exhausted" `Quick
            test_governor_trip_is_exhausted;
        ] );
    ]
