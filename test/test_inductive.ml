(* Tests of the inductive-invariant track: the abstract and concrete
   checkers (both obligations, CTI reporting and replay), the clause
   evaluator (QCheck differential against the naive re-implementation),
   and the reachable-state guarantee — passed as any engine's run
   invariant, the proved conjunction never fires and the run explores
   exactly the plain run's space, while a too-strong one fails with a
   replayable counterexample. *)

open Repro_util
module I = Modelcheck.Inductive
module Snap = Algorithms.Snapshot
module MC = Modelcheck.Explorer.Make (Modelcheck.Codecs.Snapshot)
module MCW = Modelcheck.Explorer.Make (Modelcheck.Codecs.Write_scan)
module MCD = Modelcheck.Explorer.Make (Modelcheck.Codecs.Double_collect)
module Sys2 = Anonmem.System.Make (Snap)

(* --- the abstract checker ------------------------------------------------- *)

let check_proved_at n =
  match I.check_abstract ~n I.proved with
  | I.Proved r ->
      Alcotest.(check bool) "init obligation" true r.I.r_init_ok;
      Alcotest.(check int) "no CTIs" 0 r.I.r_cti_total;
      Alcotest.(check bool) "non-trivial universe" true (r.I.r_universe > 0);
      Alcotest.(check bool)
        "transitions were actually checked" true
        (r.I.r_transitions > 0);
      Alcotest.(check bool)
        "universe below the syntactic count" true
        (r.I.r_universe < r.I.r_syntactic)
  | I.Refuted _ -> Alcotest.failf "proved clauses refuted at n=%d" n
  | I.Gave_up _ -> Alcotest.failf "abstract check gave up at n=%d" n

let test_abstract_proved_n1 () = check_proved_at 1
let test_abstract_proved_n2 () = check_proved_at 2
let test_abstract_proved_n3 () = check_proved_at 3

let test_abstract_candidates_refuted () =
  (* The comparability strengthenings are true invariants but not
     inductive: the induction step must fail (never the init check), and
     every CTI must violate a strengthening clause — the proved core is
     inductive, so no step out of the admitted universe can break it. *)
  match I.check_abstract ~n:2 I.candidates with
  | I.Refuted r ->
      Alcotest.(check bool) "init still passes" true r.I.r_init_ok;
      Alcotest.(check bool) "CTIs recorded" true (r.I.r_cti_total > 0);
      Alcotest.(check bool) "CTI list non-empty" true (r.I.r_ctis <> []);
      List.iter
        (fun cti ->
          Alcotest.(check bool)
            "CTI violates a strengthening, not the proved core" false
            (List.mem cti.I.a_clause I.proved);
          (* shrinking keeps the violation and is deterministic *)
          let s = I.shrink_acti ~n:2 I.candidates cti in
          Alcotest.(check bool)
            "shrunk CTI still violates a strengthening" false
            (List.mem s.I.a_clause I.proved);
          let s' = I.shrink_acti ~n:2 I.candidates cti in
          Alcotest.(check string) "shrink is deterministic"
            (Fmt.str "%a" I.pp_acti s)
            (Fmt.str "%a" I.pp_acti s'))
        r.I.r_ctis
  | I.Proved _ -> Alcotest.fail "candidates must not be inductive at n=2"
  | I.Gave_up _ -> Alcotest.fail "abstract check gave up"

let test_abstract_rejects_bad_n () =
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Inductive.check_abstract: n < 1") (fun () ->
      ignore (I.check_abstract ~n:0 I.proved))

let test_parse_clauses () =
  (match I.parse_clauses "proved" with
  | Ok cs -> Alcotest.(check bool) "preset proved" true (cs = I.proved)
  | Error e -> Alcotest.fail e);
  (match I.parse_clauses "candidates" with
  | Ok cs -> Alcotest.(check bool) "preset candidates" true (cs = I.candidates)
  | Error e -> Alcotest.fail e);
  (* every clause round-trips through its printed name *)
  List.iter
    (fun c ->
      match I.clause_of_name (I.clause_name c) with
      | Some c' -> Alcotest.(check bool) "name roundtrip" true (c = c')
      | None -> Alcotest.failf "clause name %s does not parse" (I.clause_name c))
    I.candidates;
  match I.parse_clauses "no-such-clause" with
  | Ok _ -> Alcotest.fail "bogus clause name accepted"
  | Error _ -> ()

(* --- the concrete checker ------------------------------------------------- *)

let test_concrete_proved_n2 () =
  match I.check_concrete ~n:2 I.proved with
  | I.C_proved cr ->
      Alcotest.(check int) "no reachable violations" 0
        cr.I.k_reachable_violations;
      Alcotest.(check int) "no CTIs" 0 cr.I.k_report.I.r_cti_total;
      Alcotest.(check bool) "init obligation" true cr.I.k_report.I.r_init_ok;
      Alcotest.(check bool) "several wirings swept" true (cr.I.k_wirings > 1)
  | I.C_refuted _ -> Alcotest.fail "proved clauses refuted concretely at n=2"
  | I.C_gave_up _ -> Alcotest.fail "concrete check gave up"

let test_concrete_rejects_large_n () =
  Alcotest.check_raises "n=3 rejected"
    (Invalid_argument
       "Inductive.check_concrete: the full concrete universe is only \
        enumerable at n <= 2; use check_abstract beyond that") (fun () ->
      ignore (I.check_concrete ~n:3 I.proved))

(* A deliberately-too-strong conjunction: [proved] plus global register
   comparability.  It holds initially (all registers empty) but is false
   on reachable states — after p0 writes {1} and p1 writes {2} the two
   register views are incomparable — so the checker must reject it at
   the induction step, and the planted violation must surface: as CTIs /
   reachable violations here, and (below) as a BFS counterexample that
   replays. *)
let too_strong = I.proved @ [ I.Regs_comparable_above 0 ]

(* Search the reachable space of one wiring for a genuine CTI: a
   reachable state satisfying [clauses] with a one-step successor that
   violates them.  Returns the ccti with its replay trace. *)
let find_reachable_ccti ~cfg ~wiring ~inputs clauses =
  let sp =
    match MC.explore ~cfg ~wiring ~inputs () with
    | MC.Explored sp -> sp
    | _ -> Alcotest.fail "exploration did not finish"
  in
  let found = ref None in
  let id = ref 0 in
  while !found = None && !id < MC.state_count sp do
    let st = MC.state_of sp !id in
    (if
       not
         (I.state_violation ~cfg ~inputs clauses ~locals:st.MC.locals
            ~registers:st.MC.registers
         <> None)
     then
       let try_pid p =
         if !found = None then
           let st' = MC.successor cfg wiring st p in
           match
             I.state_violation ~cfg ~inputs clauses ~locals:st'.MC.locals
               ~registers:st'.MC.registers
           with
           | None -> ()
           | Some c ->
               found :=
                 Some
                   {
                     I.c_clause = c;
                     c_inputs = inputs;
                     c_wiring = wiring;
                     c_pid = p;
                     c_pre = MC.encode_state cfg st;
                     c_post = MC.encode_state cfg st';
                     c_reachable = true;
                     c_trace = List.map fst (MC.trace_to sp !id);
                   }
       in
       List.iter try_pid (MC.enabled cfg st));
    incr id
  done;
  match !found with
  | Some cti -> cti
  | None -> Alcotest.fail "no reachable CTI found for the too-strong clauses"

let test_concrete_too_strong_refuted () =
  (match I.check_concrete ~max_ctis:50 ~n:2 too_strong with
  | I.C_refuted cr ->
      Alcotest.(check bool)
        "rejected at the induction step, not at init" true
        cr.I.k_report.I.r_init_ok;
      Alcotest.(check bool) "CTIs reported" true
        (cr.I.k_report.I.r_cti_total > 0)
  | I.C_proved _ -> Alcotest.fail "too-strong clauses proved"
  | I.C_gave_up _ -> Alcotest.fail "concrete check gave up");
  (* The rejection comes with a replayable CTI: a reachable state where
     the induction step genuinely breaks the planted clause. *)
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let cti = find_reachable_ccti ~cfg ~wiring ~inputs too_strong in
  Alcotest.(check bool) "planted clause violated" true
    (cti.I.c_clause = I.Regs_comparable_above 0);
  Alcotest.(check bool) "pre-state needs at least one step" true
    (cti.I.c_trace <> []);
  Alcotest.(check bool) "CTI replays through Witness" true
    (I.replay_ccti ~n:2 cti);
  (* shrinking keeps the post-state violating and the CTI replayable *)
  let s = I.shrink_ccti ~n:2 too_strong cti in
  let post = MC.decode_state cfg s.I.c_post in
  Alcotest.(check bool) "shrunk post still violates" true
    (I.state_violation ~cfg ~inputs too_strong ~locals:post.MC.locals
       ~registers:post.MC.registers
    <> None);
  (* a corrupted trace must not replay *)
  let broken = { cti with I.c_trace = cti.I.c_trace @ [ 0; 0; 0; 0 ] } in
  Alcotest.(check bool) "corrupted trace rejected" false
    (I.replay_ccti ~n:2 broken);
  Alcotest.(check bool) "unreachable CTIs never replay" false
    (I.replay_ccti ~n:2 { cti with I.c_reachable = false })

(* --- universe accounting -------------------------------------------------- *)

let test_universe_counts () =
  let c = I.universe_counts ~n:4 I.proved in
  Alcotest.(check bool) "admitted <= syntactic locals" true
    (c.I.u_adm_locals <= c.I.u_syn_locals);
  Alcotest.(check bool) "admitted <= syntactic values" true
    (c.I.u_adm_values <= c.I.u_syn_values);
  Alcotest.(check bool) "admitted <= syntactic states" true
    (c.I.u_adm_states <= c.I.u_syn_states);
  Alcotest.(check bool) "counts positive" true (c.I.u_adm_states > 0);
  Alcotest.(check bool) "proved counts are exact" true c.I.u_exact;
  (* EXPERIMENTS X11: the proved clauses admit 16x fewer local
     assignments than the syntactic universe at n=4 *)
  Alcotest.(check int) "n=4 syntactic states" 1_252_399_850_000
    c.I.u_syn_states;
  Alcotest.(check int) "n=4 admitted states" 78_274_990_625 c.I.u_adm_states;
  (* the n=2 closed form must agree with the enumerating checker *)
  match (I.check_abstract ~n:2 I.proved, I.universe_counts ~n:2 I.proved) with
  | I.Proved r, c2 ->
      Alcotest.(check int) "syntactic count agrees" r.I.r_syntactic
        c2.I.u_syn_states
  | _ -> Alcotest.fail "abstract check at n=2 must prove"

let test_input_classes () =
  Alcotest.(check int) "n=1" 1 (List.length (I.input_classes 1));
  Alcotest.(check int) "n=2" 2 (List.length (I.input_classes 2));
  Alcotest.(check int) "n=3" 3 (List.length (I.input_classes 3));
  Alcotest.(check int) "n=4: partitions of 4" 5
    (List.length (I.input_classes 4))

(* --- the proved invariant as every engine's run invariant ----------------- *)

(* [clauses] as an engine's [~invariant]: the first violated clause is the
   failure message. *)
let clauses_inv clauses cfg inputs (st : MC.state) =
  match
    I.state_violation ~cfg ~inputs clauses ~locals:st.MC.locals
      ~registers:st.MC.registers
  with
  | None -> Ok ()
  | Some c -> Error (I.clause_name c)

let explore_space ?invariant ?stop_expansion ~cfg ~wiring ~inputs () =
  match MC.explore ?invariant ?stop_expansion ~cfg ~wiring ~inputs () with
  | MC.Explored sp -> sp
  | MC.Invariant_failed (_, v) -> Alcotest.failf "invariant fired: %s" v.MC.message
  | _ -> Alcotest.fail "exploration did not finish"

let check_space_parity name base checked =
  Alcotest.(check int) (name ^ ": states") (MC.state_count base)
    (MC.state_count checked);
  Alcotest.(check int)
    (name ^ ": transitions")
    (MC.transition_count base)
    (MC.transition_count checked);
  Alcotest.(check int)
    (name ^ ": terminals")
    (List.length base.MC.terminal)
    (List.length checked.MC.terminal)

let test_reachable_inv_snapshot_n2 () =
  let cfg = Snap.standard ~n:2 in
  let wirings = Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true in
  List.iter
    (fun inputs ->
      List.iteri
        (fun i wiring ->
          let name = Fmt.str "wiring %d inputs %a" i Fmt.(Dump.array int) inputs in
          let base = explore_space ~cfg ~wiring ~inputs () in
          let checked =
            explore_space ~invariant:(clauses_inv I.proved cfg inputs) ~cfg
              ~wiring ~inputs ()
          in
          check_space_parity name base checked)
        wirings)
    [ [| 1; 2 |]; [| 1; 1 |] ]

let test_reachable_inv_snapshot_dfs () =
  let cfg = Snap.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  let wirings = Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true in
  List.iter
    (fun wiring ->
      let run invariant =
        match MC.check_exhaustive ?invariant ~cfg ~wiring ~inputs () with
        | MC.Dfs_ok s -> s
        | _ -> Alcotest.fail "snapshot DFS must terminate cleanly"
      in
      let base = run None
      and checked = run (Some (clauses_inv I.proved cfg inputs)) in
      Alcotest.(check int) "dfs states" base.MC.dfs_states checked.MC.dfs_states;
      Alcotest.(check int) "dfs transitions" base.MC.dfs_transitions
        checked.MC.dfs_transitions;
      Alcotest.(check int) "dfs terminals" base.MC.dfs_terminals
        checked.MC.dfs_terminals)
    wirings

let test_reachable_inv_snapshot_n3 () =
  (* Genuine n=3 instance, m=2 registers, depth-bounded with the same
     deterministic stop-expansion on both sides; the invariant is proved
     at n=3 for every register count, so it must hold throughout. *)
  let cfg = Snap.cfg ~n:3 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:3 ~m:2 in
  let inputs = [| 1; 2; 2 |] in
  let stop (st : MC.state) =
    Array.exists (fun l -> Snap.level_of_local l >= 2) st.MC.locals
  in
  let base = explore_space ~stop_expansion:stop ~cfg ~wiring ~inputs () in
  let checked =
    explore_space ~stop_expansion:stop
      ~invariant:(clauses_inv I.proved cfg inputs) ~cfg ~wiring ~inputs ()
  in
  Alcotest.(check bool) "non-trivial space" true (MC.state_count base > 100);
  check_space_parity "snapshot n=3 m=2" base checked

let test_reachable_inv_fingerprint () =
  let cfg = Snap.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  List.iter
    (fun wiring ->
      let base = explore_space ~cfg ~wiring ~inputs () in
      match
        MC.explore_fp ~invariant:(clauses_inv I.proved cfg inputs) ~cfg ~wiring
          ~inputs ()
      with
      | MC.Fp_explored st ->
          Alcotest.(check int) "fp states" (MC.state_count base) st.MC.fp_states;
          Alcotest.(check int) "fp transitions" (MC.transition_count base)
            st.MC.fp_transitions;
          Alcotest.(check int) "fp terminals"
            (List.length base.MC.terminal)
            st.MC.fp_terminals
      | _ -> Alcotest.fail "fingerprint run with the proved invariant failed")
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

let test_reachable_inv_faults () =
  (* Crash branches keep a processor's last core state, so they reach no
     state outside the fault-free reachable set: the proved invariant
     holds under crashes too, and the sweep matches the one checked
     against the snapshot specification. *)
  let module FS = Core.Snapshot_fault_mc in
  let cfg = Snap.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  let base =
    match Core.verify_snapshot_model_crashes ~n:2 () with
    | Ok s -> s
    | Error e -> Alcotest.failf "fault sweep failed: %s" e
  in
  let checked =
    match
      FS.check_all_wirings ~max_crashes:1
        ~invariant:(clauses_inv I.proved cfg inputs) ~cfg ~inputs ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "proved invariant fired under crashes: %s" e
  in
  Alcotest.(check bool) "crash branches explored" true
    (checked.FS.total_crash_branches > 0);
  Alcotest.(check int) "wirings" base.FS.wirings_checked
    checked.FS.wirings_checked;
  Alcotest.(check int) "states" base.FS.total_states checked.FS.total_states;
  Alcotest.(check int) "transitions" base.FS.total_transitions
    checked.FS.total_transitions;
  Alcotest.(check int) "crash branches" base.FS.total_crash_branches
    checked.FS.total_crash_branches

let test_too_strong_replays () =
  (* The too-strong conjunction as the BFS invariant: the run fails, and
     its minimal trace replays from the initial state to a state that
     really breaks the planted clause. *)
  let module R = Modelcheck.Witness.Replay (Modelcheck.Codecs.Snapshot) in
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  match
    MC.explore ~invariant:(clauses_inv too_strong cfg inputs) ~cfg ~wiring
      ~inputs ()
  with
  | MC.Invariant_failed (_, v) ->
      let planted = I.Regs_comparable_above 0 in
      Alcotest.(check string) "planted clause named" (I.clause_name planted)
        v.MC.message;
      Alcotest.(check bool) "trace needs at least one step" true
        (v.MC.trace <> []);
      let final = R.final ~cfg ~wiring ~inputs (List.map fst v.MC.trace) in
      Alcotest.(check bool) "replayed state violates the planted clause" true
        (I.state_violation ~cfg ~inputs too_strong ~locals:final.MC.locals
           ~registers:final.MC.registers
        = Some planted)
  | _ -> Alcotest.fail "too-strong invariant must fail on a reachable state"

(* Views only ever accumulate participating inputs, so "every local and
   register view is contained in the participant set" is an invariant of
   both protocols: as a run invariant it must never fire. *)
let views_within participants views =
  if List.for_all (fun v -> Iset.subset v participants) views then Ok ()
  else Error "view escapes the participant set"

let test_reachable_inv_write_scan () =
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let invariant (st : MCW.state) =
    views_within (Iset.of_list [ 1; 2 ])
      (List.map
         (fun (l : Algorithms.Write_scan.local) -> l.Algorithms.Write_scan.view)
         (Array.to_list st.MCW.locals)
      @ Array.to_list st.MCW.registers)
  in
  let run invariant =
    match MCW.explore ?invariant ~cfg ~wiring ~inputs () with
    | MCW.Explored sp -> sp
    | _ -> Alcotest.fail "write-scan exploration did not finish cleanly"
  in
  let base = run None and checked = run (Some invariant) in
  Alcotest.(check int) "states" (MCW.state_count base) (MCW.state_count checked);
  Alcotest.(check int) "transitions" (MCW.transition_count base)
    (MCW.transition_count checked);
  (* the loop never terminates: no terminal states on either side *)
  Alcotest.(check int) "no terminals" 0 (List.length base.MCW.terminal)

let test_reachable_inv_double_collect () =
  let cfg = Algorithms.Double_collect.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let invariant (st : MCD.state) =
    views_within (Iset.of_list [ 1; 2 ])
      (List.map Algorithms.Double_collect.view_of_local
         (Array.to_list st.MCD.locals)
      @ Array.to_list st.MCD.registers)
  in
  let run invariant =
    match MCD.explore ?invariant ~cfg ~wiring ~inputs () with
    | MCD.Explored sp -> sp
    | _ -> Alcotest.fail "double-collect exploration did not finish cleanly"
  in
  let base = run None and checked = run (Some invariant) in
  Alcotest.(check int) "states" (MCD.state_count base) (MCD.state_count checked);
  Alcotest.(check int) "transitions" (MCD.transition_count base)
    (MCD.transition_count checked);
  Alcotest.(check int) "terminals" (List.length base.MCD.terminal)
    (List.length checked.MCD.terminal)

(* --- QCheck: the clause evaluator ----------------------------------------- *)

(* Sample genuinely reachable configurations by running the simulator
   under a random wiring and scheduler for a random number of steps. *)
let sample_config (n, dup, seed, steps) =
  let cfg = Snap.standard ~n in
  let inputs = Array.init n (fun i -> if dup then 1 + (i / 2) else i + 1) in
  let rng = Rng.create ~seed in
  let wiring = Anonmem.Wiring.random rng ~n ~m:n in
  let st = Sys2.init ~cfg ~wiring ~inputs in
  let _ = Sys2.run ~max_steps:steps ~sched:(Anonmem.Scheduler.random rng) st in
  (cfg, inputs, st.Sys2.locals, st.Sys2.registers)

let config_arb =
  QCheck.make
    ~print:(fun (n, dup, seed, steps) ->
      Fmt.str "n=%d dup=%b seed=%d steps=%d" n dup seed steps)
    QCheck.Gen.(
      quad (int_range 1 3) bool (int_bound 100_000) (int_bound 60))

(* Clause sets exercising every constructor, including thresholds off the
   levels [candidates] uses. *)
let all_clause_sets =
  [
    I.proved;
    I.candidates;
    [ I.Reg_nonempty_above 0; I.Reg_nonempty_above 2 ];
    [
      I.Procs_comparable_above 0;
      I.Regs_comparable_above 0;
      I.Reg_proc_comparable_above (0, 0);
      I.Reg_proc_comparable_above (2, 1);
    ];
  ]

let prop_evaluator_agrees_with_naive =
  QCheck.Test.make ~name:"state_violation agrees with the naive evaluator"
    config_arb (fun input ->
      let cfg, inputs, locals, registers = sample_config input in
      List.for_all
        (fun clauses ->
          let fast = I.state_violation ~cfg ~inputs clauses ~locals ~registers in
          let slow =
            I.naive_state_violation ~cfg ~inputs clauses ~locals ~registers
          in
          (* purity: a second evaluation is identical *)
          fast = slow
          && fast = I.state_violation ~cfg ~inputs clauses ~locals ~registers)
        all_clause_sets)

let prop_reachable_satisfies_proved =
  QCheck.Test.make ~name:"reachable configurations satisfy the proved clauses"
    config_arb (fun input ->
      let cfg, inputs, locals, registers = sample_config input in
      I.state_violation ~cfg ~inputs I.proved ~locals ~registers = None)

let prop_thresholds_monotone =
  (* Raising a clause's level threshold weakens its premise, so a
     violation at threshold k+1 must imply one at threshold k. *)
  QCheck.Test.make ~name:"threshold clauses are monotone in their level"
    (QCheck.pair config_arb (QCheck.make QCheck.Gen.(int_bound 2)))
    (fun (input, k) ->
      let cfg, inputs, locals, registers = sample_config input in
      let viol cs =
        I.state_violation ~cfg ~inputs cs ~locals ~registers <> None
      in
      let families =
        [
          (fun k -> I.Reg_nonempty_above k);
          (fun k -> I.Procs_comparable_above k);
          (fun k -> I.Regs_comparable_above k);
          (fun k -> I.Reg_proc_comparable_above (k, k));
        ]
      in
      List.for_all
        (fun f -> (not (viol [ f (k + 1) ])) || viol [ f k ])
        families)

(* --- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "inductive"
    [
      ( "abstract",
        [
          Alcotest.test_case "proved passes at n=1" `Quick
            test_abstract_proved_n1;
          Alcotest.test_case "proved passes at n=2" `Quick
            test_abstract_proved_n2;
          Alcotest.test_case "proved passes at n=3" `Slow
            test_abstract_proved_n3;
          Alcotest.test_case "candidates refuted with CTIs" `Quick
            test_abstract_candidates_refuted;
          Alcotest.test_case "rejects n=0" `Quick test_abstract_rejects_bad_n;
          Alcotest.test_case "clause parsing" `Quick test_parse_clauses;
        ] );
      ( "concrete",
        [
          Alcotest.test_case "proved passes at n=2" `Slow
            test_concrete_proved_n2;
          Alcotest.test_case "too-strong invariant rejected with replayable CTI"
            `Slow test_concrete_too_strong_refuted;
          Alcotest.test_case "rejects n=3" `Quick test_concrete_rejects_large_n;
        ] );
      ( "universe",
        [
          Alcotest.test_case "closed-form counts" `Quick test_universe_counts;
          Alcotest.test_case "input classes" `Quick test_input_classes;
        ] );
      ( "reachable-inv",
        [
          Alcotest.test_case "snapshot n=2, all wirings, BFS" `Quick
            test_reachable_inv_snapshot_n2;
          Alcotest.test_case "snapshot n=2, all wirings, DFS" `Quick
            test_reachable_inv_snapshot_dfs;
          Alcotest.test_case "snapshot n=3 m=2, bounded" `Slow
            test_reachable_inv_snapshot_n3;
          Alcotest.test_case "fingerprint BFS" `Quick
            test_reachable_inv_fingerprint;
          Alcotest.test_case "fault plans" `Quick test_reachable_inv_faults;
          Alcotest.test_case "too-strong invariant fails and replays" `Quick
            test_too_strong_replays;
          Alcotest.test_case "write-scan" `Quick test_reachable_inv_write_scan;
          Alcotest.test_case "double-collect" `Quick
            test_reachable_inv_double_collect;
        ] );
      ( "evaluator-qcheck",
        [
          QCheck_alcotest.to_alcotest prop_evaluator_agrees_with_naive;
          QCheck_alcotest.to_alcotest prop_reachable_satisfies_proved;
          QCheck_alcotest.to_alcotest prop_thresholds_monotone;
        ] );
    ]
