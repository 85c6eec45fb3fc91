(* Fuzzing-side tests for the portfolio targets (rt_mutex, naming,
   weak_leader): campaign determinism across domain counts, clean
   campaigns on the sound protocols, shrunk counterexamples on the
   planted-bug variants (1-minimal, replayable), and the
   crash-during-naming regression — recovered processors re-enter the
   naming protocol and distinctness must survive their ghost ledger
   entries. *)

module H_mutex = Fuzzing.Harness.Make (Fuzzing.Targets.Rt_mutex)
module H_naming = Fuzzing.Harness.Make (Fuzzing.Targets.Naming)
module H_leader = Fuzzing.Harness.Make (Fuzzing.Targets.Weak_leader)

(* --- determinism across domain counts ------------------------------------ *)

let test_mutex_campaign_deterministic () =
  let report domains = H_mutex.campaign ~domains ~seed:11 ~iterations:300 () in
  let s1 = H_mutex.deterministic_summary ~key:"rt_mutex" (report 1) in
  Alcotest.(check string)
    "domains 2 = domains 1" s1
    (H_mutex.deterministic_summary ~key:"rt_mutex" (report 2));
  Alcotest.(check string)
    "domains 4 = domains 1" s1
    (H_mutex.deterministic_summary ~key:"rt_mutex" (report 4))

let test_naming_campaign_deterministic () =
  let report domains = H_naming.campaign ~domains ~seed:12 ~iterations:300 () in
  let s1 = H_naming.deterministic_summary ~key:"naming" (report 1) in
  Alcotest.(check string)
    "domains 2 = domains 1" s1
    (H_naming.deterministic_summary ~key:"naming" (report 2));
  Alcotest.(check string)
    "domains 4 = domains 1" s1
    (H_naming.deterministic_summary ~key:"naming" (report 4))

let test_leader_campaign_deterministic () =
  let report domains = H_leader.campaign ~domains ~seed:13 ~iterations:300 () in
  let s1 = H_leader.deterministic_summary ~key:"weak_leader" (report 1) in
  Alcotest.(check string)
    "domains 2 = domains 1" s1
    (H_leader.deterministic_summary ~key:"weak_leader" (report 2));
  Alcotest.(check string)
    "domains 4 = domains 1" s1
    (H_leader.deterministic_summary ~key:"weak_leader" (report 4))

(* --- clean campaigns ------------------------------------------------------ *)

let expect_clean key report =
  match report with
  | None -> ()
  | Some failure -> Alcotest.failf "%s: unexpected counterexample:@ %s" key failure

let test_sound_targets_clean () =
  expect_clean "rt_mutex"
    (Option.map
       (Fmt.str "%a" (H_mutex.pp_counterexample ~key:"rt_mutex"))
       (H_mutex.campaign ~seed:0 ~iterations:1_000 ()).Fuzzing.Harness
       .counterexample);
  expect_clean "naming"
    (Option.map
       (Fmt.str "%a" (H_naming.pp_counterexample ~key:"naming"))
       (H_naming.campaign ~seed:0 ~iterations:1_000 ()).Fuzzing.Harness
       .counterexample);
  expect_clean "weak_leader"
    (Option.map
       (Fmt.str "%a" (H_leader.pp_counterexample ~key:"weak_leader"))
       (H_leader.campaign ~seed:0 ~iterations:1_000 ()).Fuzzing.Harness
       .counterexample)

(* --- planted bugs: found, shrunk to 1-minimal, replayable ---------------- *)

module Eager_mutex_target : Fuzzing.Target.S = struct
  module P = Algorithms.Rt_mutex

  let cfg ~n ~m = Algorithms.Rt_mutex.cfg_eager ~n ~m
  let max_registers = Fuzzing.Targets.Rt_mutex.max_registers
  let m_range = Fuzzing.Targets.Rt_mutex.m_range

  let check ~inputs ~participated ~outputs =
    Tasks.Mutex_task.check
      (Tasks.Outcome.make ~participated ~inputs ~outputs ())

  let step_budget ~n:_ ~m:_ = None
end

module H_eager = Fuzzing.Harness.Make (Eager_mutex_target)

module Majority_leader_target : Fuzzing.Target.S = struct
  module P = Algorithms.Weak_leader

  let cfg ~n ~m = Algorithms.Weak_leader.cfg_majority ~n ~m
  let max_registers = Fuzzing.Targets.Weak_leader.max_registers
  let m_range = Fuzzing.Targets.Weak_leader.m_range

  let check ~inputs ~participated ~outputs =
    Tasks.Leader_task.check
      (Tasks.Outcome.make ~participated ~inputs ~outputs ())

  (* Safety only: the planted bug is a uniqueness break, and mixing in
     budget failures would blur what the shrinker is minimizing. *)
  let step_budget ~n:_ ~m:_ = None
end

module H_majority = Fuzzing.Harness.Make (Majority_leader_target)

let shrunk_counterexample name (r : Fuzzing.Harness.report) =
  match r.Fuzzing.Harness.counterexample with
  | Some cex -> cex
  | None -> Alcotest.failf "%s: planted bug not found" name

module type VERDICT = sig
  val verdict_of_instance :
    Fuzzing.Harness.instance -> (unit, Tasks.Task_failure.t) result
end

let check_one_minimal_and_replayable name (module H : VERDICT)
    (cex : Fuzzing.Harness.counterexample) =
  let inst = cex.Fuzzing.Harness.instance in
  (* Replay: the shrunk instance still fails, with the same property. *)
  (match H.verdict_of_instance inst with
  | Error f ->
      Alcotest.(check string)
        (name ^ ": replay reproduces the property")
        (Tasks.Task_failure.property_name
           cex.Fuzzing.Harness.failure.Tasks.Task_failure.property)
        (Tasks.Task_failure.property_name f.Tasks.Task_failure.property)
  | Ok () -> Alcotest.failf "%s: shrunk instance passes on replay" name);
  (* 1-minimality: removing any single script step makes it pass. *)
  let script = Array.of_list inst.Fuzzing.Harness.script in
  Array.iteri
    (fun i _ ->
      let shorter =
        Array.to_list script |> List.filteri (fun j _ -> j <> i)
      in
      match
        H.verdict_of_instance { inst with Fuzzing.Harness.script = shorter }
      with
      | Error _ ->
          Alcotest.failf "%s: dropping step %d still fails — not 1-minimal"
            name i
      | Ok () -> ())
    script

let test_planted_eager_mutex_fuzzed () =
  let r = H_eager.campaign ~n_range:(2, 3) ~seed:3 ~iterations:4_000 () in
  let cex = shrunk_counterexample "eager mutex" r in
  Alcotest.(check string)
    "eager mutex: a mutual-exclusion failure" "mutual-exclusion"
    (Tasks.Task_failure.property_name
       cex.Fuzzing.Harness.failure.Tasks.Task_failure.property);
  check_one_minimal_and_replayable "eager mutex" (module H_eager) cex

let test_planted_majority_leader_fuzzed () =
  let r = H_majority.campaign ~n_range:(2, 3) ~seed:5 ~iterations:4_000 () in
  let cex = shrunk_counterexample "majority leader" r in
  Alcotest.(check string)
    "majority leader: a uniqueness failure" "leader-uniqueness"
    (Tasks.Task_failure.property_name
       cex.Fuzzing.Harness.failure.Tasks.Task_failure.property);
  check_one_minimal_and_replayable "majority leader" (module H_majority) cex

(* --- crash-during-naming regression --------------------------------------- *)

(* A crash-recover event is an amnesiac restart: the processor loses its
   local state (its half-written flood, its claimed registers) and
   re-enters the naming protocol from scratch on the same input.  Its
   abandoned ledger entry survives in memory as a ghost — later
   processors see it, extend past it, and names only grow.  Distinctness
   must survive any such plan; this campaign is the regression for the
   fault/naming composition (the halt predicate is name-dependent, and
   recovered processors re-enter naming). *)
let test_naming_survives_crash_recover () =
  List.iter
    (fun profile ->
      let r =
        H_naming.campaign ~fault_profile:profile ~seed:0 ~iterations:2_000 ()
      in
      match r.Fuzzing.Harness.counterexample with
      | None -> ()
      | Some cex ->
          Alcotest.failf "naming under %s broke:@ %a"
            (Fuzzing.Fault_gen.name profile)
            (H_naming.pp_counterexample ~key:"naming")
            cex)
    [ Fuzzing.Fault_gen.Crash_stop_only; Fuzzing.Fault_gen.Crash_recover ]

(* Mutual exclusion likewise: a crashed holder never unlocks (liveness is
   forfeit under crash-stop) but no interloper may enter. *)
let test_mutex_survives_crash_profiles () =
  List.iter
    (fun profile ->
      let r =
        H_mutex.campaign ~fault_profile:profile ~seed:0 ~iterations:2_000 ()
      in
      match r.Fuzzing.Harness.counterexample with
      | None -> ()
      | Some cex ->
          Alcotest.failf "rt_mutex under %s broke:@ %a"
            (Fuzzing.Fault_gen.name profile)
            (H_mutex.pp_counterexample ~key:"rt_mutex")
            cex)
    [ Fuzzing.Fault_gen.Crash_stop_only; Fuzzing.Fault_gen.Crash_recover ]

(* --- known counterexample: naming with clone identities ------------------ *)

(* `fuzz.exe --protocol naming --seed 108 --iterations 12500` fails at case
   5140: n=4, m=5, inputs 1,3,3,3 (p2..p4 are clones of identity 3), a
   crashy adversary, shrunk to 137 steps in which p1 and p4 both acquire
   name 2.  Replayed under an observer of who is flooding (the critical
   section), it is the mutex breach among duplicate identities — the
   class of the rt_mutex counterexample at n=3, m=5, inputs 1,3,3 — and
   not a ledger or flood fault: a clone reads its twin's claims as its
   own, so the three clones flood together (steps 85-95); p4 floods the
   ledger with its name 2, the floods of p2 and p3 still carry the ledger
   from before it and overwrite every copy, and p1 enters while p2's
   flood is unfinished, sees only name 1 and takes 2 again.  The test
   pins the current verdict and that overlap; both change if naming
   learns to keep clones apart. *)
let naming_seed108 =
  let ints s = List.map int_of_string (String.split_on_char ',' s) in
  {
    Fuzzing.Harness.n = 4;
    m = 5;
    inputs = [| 1; 3; 3; 3 |];
    wiring_perms =
      List.map
        (fun row -> List.map pred (ints row))
        [ "1,4,2,3,5"; "2,5,4,3,1"; "1,3,2,4,5"; "1,4,3,5,2" ];
    script =
      List.map pred
        (ints
           ("3,2,4,2,4,4,1,3,4,3,2,3,1,1,1,1,2,2,4,2,3,4,4,1,4,4,3,3,1,2,2,4,3,4,"
          ^ "1,1,3,3,4,2,3,4,4,2,2,1,4,1,3,2,2,4,4,1,3,2,1,3,3,2,1,1,4,1,4,2,1,1,"
          ^ "4,1,4,2,4,1,2,4,4,4,4,3,4,3,1,4,4,4,3,4,2,4,1,2,1,4,3,4,3,1,3,3")
        @ List.init 37 (fun _ -> 1));
    faults = [];
  }

let test_naming_seed108_campaign () =
  let r = H_naming.campaign ~seed:108 ~iterations:12_500 () in
  match r.Fuzzing.Harness.counterexample with
  | None -> Alcotest.fail "seed 108 no longer fails naming"
  | Some cex ->
      Alcotest.(check (option int))
        "found at case 5140" (Some 5140)
        (Option.map fst r.Fuzzing.Harness.found_after);
      Alcotest.(check bool)
        "shrinks to the pinned instance" true
        (cex.Fuzzing.Harness.instance = naming_seed108)

let test_naming_seed108_clone_breach () =
  let inst = naming_seed108 in
  (match H_naming.verdict_of_instance inst with
  | Error f ->
      Alcotest.(check string)
        "property" "name-uniqueness"
        (Tasks.Task_failure.property_name f.Tasks.Task_failure.property);
      Alcotest.(check (list int)) "p1 and p4" [ 0; 3 ] f.Tasks.Task_failure.processors
  | Ok () -> Alcotest.fail "the replay no longer fails");
  let module N = Algorithms.Naming in
  let module S = Anonmem.System.Make (N) in
  let state =
    S.init
      ~cfg:(N.cfg ~n:inst.n ~m:inst.m)
      ~wiring:(Anonmem.Wiring.of_lists inst.wiring_perms)
      ~inputs:inst.inputs
  in
  (* Who is in the critical section after each step, as a mask. *)
  let in_cs = ref [] in
  let on_event ~time:_ _ =
    let mask = ref 0 in
    Array.iteri (fun p l -> if N.in_cs l then mask := !mask lor (1 lsl p)) state.S.locals;
    in_cs := !mask :: !in_cs
  in
  ignore
    (S.run ~max_steps:(List.length inst.script) ~on_event
       ~sched:(Anonmem.Scheduler.script inst.script)
       state);
  let clones = 0b1110 in
  let at_once k =
    List.exists (fun mask -> Repro_util.Bits.popcount (mask land clones) >= k) !in_cs
  in
  Alcotest.(check bool) "the three clones flood at once" true (at_once 3);
  Alcotest.(check bool)
    "p1 floods while a clone's flood is unfinished" true
    (List.exists (fun mask -> mask land 1 <> 0 && mask land clones <> 0) !in_cs)

let () =
  Alcotest.run "portfolio-fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "rt_mutex summary, domains 1/2/4" `Quick
            test_mutex_campaign_deterministic;
          Alcotest.test_case "naming summary, domains 1/2/4" `Quick
            test_naming_campaign_deterministic;
          Alcotest.test_case "weak_leader summary, domains 1/2/4" `Quick
            test_leader_campaign_deterministic;
        ] );
      ( "clean-campaigns",
        [
          Alcotest.test_case "sound targets stay clean" `Quick
            test_sound_targets_clean;
        ] );
      ( "planted-bugs",
        [
          Alcotest.test_case "eager mutex: shrunk + replayable" `Quick
            test_planted_eager_mutex_fuzzed;
          Alcotest.test_case "majority leader: shrunk + replayable" `Quick
            test_planted_majority_leader_fuzzed;
        ] );
      ( "fault-composition",
        [
          Alcotest.test_case "naming survives crash/recover" `Quick
            test_naming_survives_crash_recover;
          Alcotest.test_case "mutex survives crash/recover" `Quick
            test_mutex_survives_crash_profiles;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "naming seed 108: found at case 5140" `Quick
            test_naming_seed108_campaign;
          Alcotest.test_case "naming seed 108: clone mutex breach" `Quick
            test_naming_seed108_clone_breach;
        ] );
    ]
