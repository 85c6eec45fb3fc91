(* Tests of the fault-injection substrate: plan serialization and
   shrinking helpers, seeded generation, the simulator's per-fault-kind
   semantics, the fault-aware fuzzing pipeline (find -> shrink -> replay
   of a genuine fault-induced violation), and crash-stop runs checked
   against the model checker's fault-free space. *)

open Repro_util
module F = Anonmem.Fault

let plan_eq = Alcotest.(check (list string)) "plan"
let strs plan = List.map (fun e -> Fmt.str "%a" F.pp_event e) plan

(* ---- plan representation -------------------------------------------- *)

let test_roundtrip () =
  (* Every generated plan survives to_string/of_string. *)
  List.iter
    (fun profile ->
      for seed = 0 to 19 do
        let rng = Rng.create ~seed in
        let plan = Fuzzing.Fault_gen.random rng ~profile ~n:4 ~m:3 ~horizon:50 in
        plan_eq (strs plan) (strs (F.of_string (F.to_string plan)))
      done)
    Fuzzing.Fault_gen.all;
  (* The documented surface grammar parses, with and without prefixes. *)
  let plan =
    F.normalize (F.of_string "crash:p2@10; recover:p3@8; omit:p1@4; stuck:r2@0")
  in
  plan_eq (strs plan)
    (strs
       (F.normalize
          [
            F.Crash_stop { p = 1; at = 10 };
            F.Crash_recover { p = 2; at = 8 };
            F.Omit_write { p = 0; at = 4 };
            F.Stuck_register { reg = 1; at = 0 };
          ]));
  Alcotest.check_raises "junk rejected"
    (Invalid_argument
       "Fault.of_string: unknown fault kind \"explode\" \
        (crash|recover|omit|stale|stuck)") (fun () ->
      ignore (F.of_string "explode:p1@2"))

let test_normalize_and_queries () =
  let plan =
    F.normalize
      [
        F.Crash_stop { p = 1; at = 9 };
        F.Crash_stop { p = 1; at = 3 };
        F.Crash_stop { p = 1; at = 3 };
        F.Stale_read { p = 0; at = 1 };
      ]
  in
  Alcotest.(check int) "dedup" 3 (List.length plan);
  Alcotest.(check bool) "sorted by time" true
    (match plan with F.Stale_read { at = 1; _ } :: _ -> true | _ -> false);
  Alcotest.(check bool) "not crash free" false (F.is_crash_free plan);
  let stops = F.crash_stops ~n:3 plan in
  Alcotest.(check (option int)) "earliest crash wins" (Some 3) stops.(1);
  Alcotest.(check (option int)) "uncrashed" None stops.(0);
  Alcotest.(check (list int)) "stale arms" [ 1 ] (F.stale_arms ~n:3 plan).(0)

let test_drop_shifting () =
  let plan =
    F.normalize
      [
        F.Omit_write { p = 0; at = 2 };
        F.Crash_stop { p = 2; at = 5 };
        F.Stuck_register { reg = 2; at = 1 };
      ]
  in
  (* Dropping processor 1 renumbers p2 -> p1 and keeps p0. *)
  plan_eq
    (strs (F.drop_processor ~p:1 plan))
    (strs
       (F.normalize
          [
            F.Omit_write { p = 0; at = 2 };
            F.Crash_stop { p = 1; at = 5 };
            F.Stuck_register { reg = 2; at = 1 };
          ]));
  (* Dropping the faulted processor removes its events. *)
  plan_eq
    (strs (F.drop_processor ~p:0 plan))
    (strs
       (F.normalize
          [ F.Crash_stop { p = 1; at = 5 }; F.Stuck_register { reg = 2; at = 1 } ]));
  (* Register drops shift stuck-register indices the same way. *)
  plan_eq
    (strs (F.drop_register ~reg:0 plan))
    (strs
       (F.normalize
          [
            F.Omit_write { p = 0; at = 2 };
            F.Crash_stop { p = 2; at = 5 };
            F.Stuck_register { reg = 1; at = 1 };
          ]));
  plan_eq
    (strs (F.drop_register ~reg:2 plan))
    (strs
       (F.normalize
          [ F.Omit_write { p = 0; at = 2 }; F.Crash_stop { p = 2; at = 5 } ]))

(* ---- seeded determinism --------------------------------------------- *)

let test_generation_deterministic () =
  List.iter
    (fun profile ->
      for seed = 0 to 9 do
        let draw () =
          Fuzzing.Fault_gen.random (Rng.create ~seed) ~profile ~n:5 ~m:4
            ~horizon:80
        in
        plan_eq (strs (draw ())) (strs (draw ()))
      done)
    Fuzzing.Fault_gen.all

let test_case_generation_deterministic () =
  (* The full case generator stays deterministic with a fault profile, and
     a [No_faults] profile draws nothing from the rng (same case as the
     default path). *)
  let gen ?fault_profile () =
    Fuzzing.Gen.case ~seed:7 ~n_range:(2, 5) ~m_range:(fun ~n -> (n, n))
      ?fault_profile ~max_steps:500 ()
  in
  let c1 = gen ~fault_profile:Fuzzing.Fault_gen.Mixed () in
  let c2 = gen ~fault_profile:Fuzzing.Fault_gen.Mixed () in
  Alcotest.(check string)
    "same case" (Fmt.str "%a" Fuzzing.Gen.pp c1) (Fmt.str "%a" Fuzzing.Gen.pp c2);
  Alcotest.(check bool) "plan generated" true (c1.Fuzzing.Gen.faults <> []);
  let plain = gen () in
  let none = gen ~fault_profile:Fuzzing.Fault_gen.No_faults () in
  Alcotest.(check string)
    "no_faults = default path" (Fmt.str "%a" Fuzzing.Gen.pp plain)
    (Fmt.str "%a" Fuzzing.Gen.pp none)

(* ---- simulator semantics, one fault kind at a time ------------------- *)

module Sys = Anonmem.System.Make (Algorithms.Snapshot)

let run_with_plan ~plan ~script ~n =
  let cfg = Algorithms.Snapshot.cfg ~n ~m:n in
  let wiring = Anonmem.Wiring.identity ~n ~m:n in
  let state =
    Sys.init ~cfg ~wiring ~inputs:(Array.init n (fun i -> i + 1))
  in
  let events = ref [] and notes = ref [] in
  let stop, steps =
    Sys.run
      ~max_steps:(List.length script + 1)
      ~faults:plan
      ~sched:(Anonmem.Scheduler.script script)
      ~on_event:(fun ~time ev -> events := (time, ev) :: !events)
      ~on_fault:(fun ~time nt -> notes := (time, nt) :: !notes)
      state
  in
  (stop, steps, List.rev !events, List.rev !notes, state)

let test_crash_stop_semantics () =
  let script = List.concat (List.init 30 (fun _ -> [ 0; 1 ])) in
  let plan = [ F.Crash_stop { p = 1; at = 7 } ] in
  let _, _, events, notes, _ = run_with_plan ~plan ~script ~n:2 in
  List.iter
    (fun (time, ev) ->
      let p = match ev with Sys.Read_ev { p; _ } | Sys.Write_ev { p; _ } -> p in
      if p = 1 then
        Alcotest.(check bool) "no p2 steps at/after the crash" true (time < 7))
    events;
  Alcotest.(check bool) "crash note emitted" true
    (List.exists
       (function _, Sys.Crash_note { p = 1; recovering = false } -> true | _ -> false)
       notes)

let test_crash_recover_semantics () =
  (* Recover after the first step: the local state resets mid-run, and
     the processor still terminates (later) with a valid output
     containing its own input. *)
  let script = List.init 40 (fun _ -> 0) in
  let plan = [ F.Crash_recover { p = 0; at = 1 } ] in
  let _, _, _, notes, state = run_with_plan ~plan ~script ~n:1 in
  Alcotest.(check bool) "restart note emitted" true
    (List.exists
       (function _, Sys.Restart_note { p = 0; attempt = 1 } -> true | _ -> false)
       notes);
  match (Sys.outputs state).(0) with
  | Some o -> Alcotest.(check bool) "valid output" true (Iset.mem 1 o)
  | None -> Alcotest.fail "recovered processor must still terminate"

let test_omission_semantics () =
  (* Solo snapshot starts with a write; dropping it at time 0 must leave
     the register at its initial value while the processor advances. *)
  let script = List.init 40 (fun _ -> 0) in
  let plan = [ F.Omit_write { p = 0; at = 0 } ] in
  let _, _, events, notes, _ = run_with_plan ~plan ~script ~n:1 in
  (match notes with
  | (0, Sys.Dropped_write { p = 0; stuck = false; _ }) :: _ -> ()
  | _ -> Alcotest.fail "first note must be the dropped write at time 0");
  (* The dropped write consumed the step: no memory event at time 0. *)
  Alcotest.(check bool) "no event at time 0" true
    (List.for_all (fun (time, _) -> time <> 0) events)

let test_stale_read_semantics () =
  (* Identity wiring, n=1: the solo run writes then scans; a stale read
     during the scan returns the register's previous value and the note
     records both values. *)
  let script = List.init 40 (fun _ -> 0) in
  let plan = [ F.Stale_read { p = 0; at = 1 } ] in
  let _, _, _, notes, _ = run_with_plan ~plan ~script ~n:1 in
  match
    List.find_opt
      (function _, Sys.Stale_read_note _ -> true | _ -> false)
      notes
  with
  | Some (t, Sys.Stale_read_note { stale; fresh; _ }) ->
      Alcotest.(check bool) "fires at the first read past the arm" true (t >= 1);
      Alcotest.(check bool) "stale differs from fresh" true (stale <> fresh)
  | _ -> Alcotest.fail "stale-read note with both values expected"

let test_stuck_register_semantics () =
  let script = List.concat (List.init 40 (fun _ -> [ 0; 1 ])) in
  let plan = [ F.Stuck_register { reg = 0; at = 0 } ] in
  let _, _, events, notes, _ = run_with_plan ~plan ~script ~n:2 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Sys.Write_ev { phys_reg; _ } ->
          Alcotest.(check bool) "no write ever lands on r1" true (phys_reg <> 0)
      | Sys.Read_ev _ -> ())
    events;
  Alcotest.(check bool) "stuck drops recorded" true
    (List.exists
       (function _, Sys.Dropped_write { stuck = true; phys_reg = 0; _ } -> true | _ -> false)
       notes)

let test_empty_plan_is_transparent () =
  (* An empty plan must replay identically to a run without [~faults]. *)
  let script = List.concat (List.init 20 (fun _ -> [ 0; 1 ])) in
  let stop1, steps1, events1, notes1, st1 = run_with_plan ~plan:[] ~script ~n:2 in
  let cfg = Algorithms.Snapshot.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let state = Sys.init ~cfg ~wiring ~inputs:[| 1; 2 |] in
  let events2 = ref [] in
  let stop2, steps2 =
    Sys.run
      ~max_steps:(List.length script + 1)
      ~sched:(Anonmem.Scheduler.script script)
      ~on_event:(fun ~time ev -> events2 := (time, ev) :: !events2)
      state
  in
  Alcotest.(check bool) "same stop" true (stop1 = stop2);
  Alcotest.(check int) "same steps" steps2 steps1;
  Alcotest.(check bool) "same events" true (events1 = List.rev !events2);
  Alcotest.(check bool) "no notes" true (notes1 = []);
  Alcotest.(check bool) "same outputs" true (Sys.outputs st1 = Sys.outputs state)

(* ---- the fault-aware fuzzing pipeline -------------------------------- *)

module H = Fuzzing.Harness.Make (Fuzzing.Targets.Snapshot)

(* The snapshot target with a tightened wait-freedom budget.  The stock
   budget (500*(n+1)*(m+1)) makes stuck-register counterexamples
   thousands of steps long and shrinking them slow; at n=m=2 the
   algorithm terminates well under 100 own-steps under every schedule
   (the n=2 model check's deepest path bounds total steps), so 540 keeps
   plenty of slack for fault-free runs while keeping scripts short. *)
module Tight_snapshot : Fuzzing.Target.S = struct
  module P = Algorithms.Snapshot

  let cfg ~n ~m = Algorithms.Snapshot.cfg ~n ~m
  let max_registers = Fuzzing.Targets.snapshot_max_registers
  let m_range ~n = (n, n)
  let check = Fuzzing.Targets.Snapshot_oracle.check
  let step_budget ~n ~m = Some (60 * (n + 1) * (m + 1))
end

module HT = Fuzzing.Harness.Make (Tight_snapshot)

let test_crash_stop_campaign_clean () =
  (* Acceptance bar (a): the Figure-3 snapshot keeps its safety
     properties under crash-stop faults across >= 1000 seeded cases. *)
  let r =
    H.campaign ~fault_profile:Fuzzing.Fault_gen.Crash_stop_only ~seed:0
      ~iterations:1_000 ()
  in
  Alcotest.(check int) "all cases ran" 1_000 r.Fuzzing.Harness.iterations;
  match r.Fuzzing.Harness.counterexample with
  | None -> ()
  | Some cex ->
      Alcotest.fail
        (Fmt.str "crash-stop broke the snapshot?! %a"
           (H.pp_counterexample ~key:"snapshot") cex)

let test_stuck_register_violation_found_shrunk_replayed () =
  (* Acceptance bar (b): a genuine fault-induced violation is found,
     shrunk to a 1-minimal script, and replays.  A stuck register is a
     permanently covered register, so by the Section-2.1 lower bound the
     remaining usable registers cannot support wait-freedom — and the
     fuzzer finds exactly that: a processor churning past its budget. *)
  let r =
    HT.campaign ~fault_profile:Fuzzing.Fault_gen.Stuck ~n_range:(2, 2)
      ~max_steps:1_300 ~seed:0 ~iterations:200 ()
  in
  let cex =
    match r.Fuzzing.Harness.counterexample with
    | Some cex -> cex
    | None -> Alcotest.fail "stuck register must break wait-freedom"
  in
  let inst = cex.Fuzzing.Harness.instance in
  Alcotest.(check string)
    "wait-freedom violation" "wait-freedom"
    (Tasks.Task_failure.property_name
       cex.Fuzzing.Harness.failure.Tasks.Task_failure.property);
  (* The shrunk plan is a single stuck-register event... *)
  Alcotest.(check int) "one fault event" 1 (List.length inst.Fuzzing.Harness.faults);
  (match inst.Fuzzing.Harness.faults with
  | [ F.Stuck_register _ ] -> ()
  | _ -> Alcotest.fail "expected a stuck-register event");
  (* ...and the violation is genuinely fault-induced: the same script
     without the plan passes. *)
  (match
     HT.verdict_of_instance { inst with Fuzzing.Harness.faults = [] }
   with
  | Ok () -> ()
  | Error f ->
      Alcotest.fail
        (Fmt.str "not fault-induced: still fails without the plan: %a"
           Tasks.Task_failure.pp f));
  (* Replaying the instance deterministically reproduces the failure. *)
  (match HT.verdict_of_instance inst with
  | Error f ->
      Alcotest.(check string)
        "same property" "wait-freedom"
        (Tasks.Task_failure.property_name f.Tasks.Task_failure.property)
  | Ok () -> Alcotest.fail "shrunk instance must still fail on replay");
  (* 1-minimality of the script: removing any single step makes it pass. *)
  let script = Array.of_list inst.Fuzzing.Harness.script in
  let still_failing = ref 0 in
  Array.iteri
    (fun i _ ->
      let shorter =
        Array.to_list script |> List.filteri (fun j _ -> j <> i)
      in
      if
        Result.is_error
          (HT.verdict_of_instance { inst with Fuzzing.Harness.script = shorter })
      then incr still_failing)
    script;
  Alcotest.(check int) "script is 1-minimal" 0 !still_failing

let test_shrinker_drops_superfluous_faults () =
  (* Start from a failing instance padded with fault events that do not
     matter; the fault-first ddmin pass must strip them all. *)
  let r =
    HT.campaign ~fault_profile:Fuzzing.Fault_gen.Stuck ~n_range:(2, 2)
      ~max_steps:1_300 ~seed:0 ~iterations:200 ()
  in
  let inst =
    match r.Fuzzing.Harness.counterexample with
    | Some cex -> cex.Fuzzing.Harness.instance
    | None -> Alcotest.fail "expected a counterexample"
  in
  let horizon = List.length inst.Fuzzing.Harness.script in
  let padded =
    {
      inst with
      Fuzzing.Harness.faults =
        F.normalize
          (inst.Fuzzing.Harness.faults
          @ [
              F.Omit_write { p = 0; at = horizon + 50 };
              F.Stale_read { p = 1; at = horizon + 60 };
            ]);
    }
  in
  let fails i = Result.is_error (HT.verdict_of_instance i) in
  Alcotest.(check bool) "padded instance still fails" true (fails padded);
  let shrunk = HT.shrink_instance ~fails padded in
  Alcotest.(check int) "superfluous events stripped" 1
    (List.length shrunk.Fuzzing.Harness.faults)

let test_fault_plan_in_replay_command () =
  let inst =
    {
      Fuzzing.Harness.n = 2;
      m = 2;
      wiring_perms = [ [ 0; 1 ]; [ 1; 0 ] ];
      inputs = [| 1; 2 |];
      script = [ 0; 1 ];
      faults = [ F.Stuck_register { reg = 1; at = 0 } ];
    }
  in
  let cmd = Fuzzing.Harness.replay_command ~key:"snapshot" inst in
  let contains ~sub s =
    let n = String.length sub and l = String.length s in
    let rec at i = i + n <= l && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "plan serialized into replay" true
    (contains ~sub:"--fault-plan 'stuck:r2@0'" cmd)

(* ---- crash-stop runs stay in the fault-free space -------------------- *)

(* A crash-stop changes no local and no register: it only removes the
   crashed processor's moves.  Every state a crash-stop run reaches is
   therefore reachable without crashes, and the fault-free exhaustive
   verdict is the crash-stop certificate (DESIGN.md, "Fault injection &
   crash recovery").  These
   cases tie the simulator's crash semantics to the model checker's
   fault-free space, so a crash that changed state would fail them. *)

module MC = Core.Snapshot_mc

(* [runs] seeded n=2 runs of the simulator on [wiring], each under a
   random crash-stop-only plan of at most [max_crashes] crashes (any
   processor, at any time in [0, 30)) and a random scheduler.  [visit]
   sees the plan and the key of every state the run reaches, the
   initial one included.  Returns how many crashes stopped a live
   processor, so a caller can check the plans did something. *)
let crash_runs ?(runs = 300) ~max_crashes ~inputs wiring visit =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let fired = ref 0 in
  for seed = 0 to runs - 1 do
    let rng = Rng.create ~seed in
    let plan =
      List.init
        (Rng.int rng (max_crashes + 1))
        (fun _ -> F.Crash_stop { p = Rng.int rng 2; at = Rng.int rng 30 })
    in
    let s = Sys.init ~cfg ~wiring ~inputs in
    let key () =
      MC.encode_state cfg
        { MC.locals = s.Sys.locals; registers = s.Sys.registers }
    in
    visit plan (key ());
    ignore
      (Sys.run ~faults:plan ~sched:(Anonmem.Scheduler.random rng)
         ~on_event:(fun ~time:_ _ -> visit plan (key ()))
         ~on_fault:(fun ~time:_ -> function
           | Sys.Crash_note { recovering = false; _ } -> incr fired
           | _ -> ())
         s)
  done;
  !fired

(* The fault-free space of one wiring, with the snapshot invariant
   checked on every state of it. *)
let fault_free_space ~inputs wiring =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  match
    MC.explore ~invariant:(Core.snapshot_invariant cfg inputs) ~cfg ~wiring
      ~inputs ()
  with
  | MC.Explored space -> space
  | MC.Invariant_failed (_, v) -> Alcotest.fail v.MC.message
  | MC.Exhausted _ -> Alcotest.fail "no governor, yet exhausted"

(* On every n=2 wiring, every state of every crash-stop run is in the
   verified fault-free space: n=2 is safe under [max_crashes]
   crash-stops. *)
let test_crash_runs_in_fault_free_space ~inputs ~max_crashes () =
  List.iter
    (fun wiring ->
      let space = fault_free_space ~inputs wiring in
      let fired =
        crash_runs ~max_crashes ~inputs wiring (fun plan key ->
            if not (MC.mem space key) then
              Alcotest.failf
                "wiring %a, plan [%s]: a state outside the fault-free space"
                Anonmem.Wiring.pp wiring (F.to_string plan))
      in
      Alcotest.(check bool) "some crash stopped a live processor" true
        (fired > 0))
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

(* The witness of a state reached under crashes is a crash-free trace:
   for every such state, the fault-free space's parent links give a
   trace of processor steps that replays from the initial state to its
   key. *)
let test_crash_traces_replay () =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let inputs = [| 1; 1 |] in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let space = fault_free_space ~inputs wiring in
  let replayed = Hashtbl.create 64 in
  ignore
    (crash_runs ~runs:100 ~max_crashes:2 ~inputs wiring (fun plan key ->
         if plan <> [] && not (Hashtbl.mem replayed key) then begin
           Hashtbl.add replayed key ();
           match MC.find space key with
           | None -> Alcotest.fail "a crashed state outside the space"
           | Some id ->
               let st =
                 List.fold_left
                   (fun st (mv, post) ->
                     Alcotest.(check bool) "a processor step" true (mv < 2);
                     let st = MC.successor cfg wiring st mv in
                     Alcotest.(check string) "post-state"
                       (MC.encode_state cfg post) (MC.encode_state cfg st);
                     st)
                   (MC.init_state ~cfg ~inputs) (MC.trace_to space id)
               in
               Alcotest.(check string) "replay reaches the key" key
                 (MC.encode_state cfg st)
         end));
  Alcotest.(check bool) "crashed states traced" true
    (Hashtbl.length replayed > 0)

(* A planted invariant that a crash-stop run breaks is caught by the
   fault-free search, and its minimal witness has no crash: p2 crashing
   at time 0 leaves p1 to run solo to its output, and the BFS reports
   that solo run, twelve p1 steps. *)
let test_planted_bug_crash_witness () =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let invariant (st : MC.state) =
    if
      Array.exists
        (fun l -> Algorithms.Snapshot.output cfg l <> None)
        st.MC.locals
    then Error "planted: someone terminated"
    else Ok ()
  in
  let s = Sys.init ~cfg ~wiring ~inputs in
  ignore
    (Sys.run
       ~faults:[ F.Crash_stop { p = 1; at = 0 } ]
       ~sched:(Anonmem.Scheduler.round_robin ())
       s);
  Alcotest.(check bool) "the crash run breaks the planted invariant" true
    (Result.is_error
       (invariant { MC.locals = s.Sys.locals; registers = s.Sys.registers }));
  match MC.explore ~invariant ~cfg ~wiring ~inputs () with
  | MC.Invariant_failed (_, v) ->
      Alcotest.(check string) "message" "planted: someone terminated"
        v.MC.message;
      Alcotest.(check (list int)) "witness: p1 solo" (List.init 12 (fun _ -> 0))
        (List.map fst v.MC.trace)
  | _ -> Alcotest.fail "planted invariant must fail the search"

(* The fault-free search stops early only on its governor: under a
   quota it returns [Exhausted] with a partial count, and with no
   governor it explores the whole (pinned) space. *)
let test_state_bound () =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  (match MC.explore ~cfg ~wiring ~inputs () with
  | MC.Explored space ->
      Alcotest.(check int) "pinned space" 2827 (MC.state_count space)
  | _ -> Alcotest.fail "the search must finish without a governor");
  let governor = Modelcheck.Governor.create ~quota:50 () in
  match MC.explore ~governor ~cfg ~wiring ~inputs () with
  | MC.Exhausted { reason = Modelcheck.Governor.Quota; states } ->
      Alcotest.(check bool) "partial count" true (states >= 50)
  | _ -> Alcotest.fail "a quota must stop the search"

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "serialization round-trip" `Quick test_roundtrip;
          Alcotest.test_case "normalize + queries" `Quick
            test_normalize_and_queries;
          Alcotest.test_case "drop shifting" `Quick test_drop_shifting;
        ] );
      ( "generation",
        [
          Alcotest.test_case "plans deterministic per seed" `Quick
            test_generation_deterministic;
          Alcotest.test_case "cases deterministic per seed" `Quick
            test_case_generation_deterministic;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "crash-stop" `Quick test_crash_stop_semantics;
          Alcotest.test_case "crash-recover" `Quick test_crash_recover_semantics;
          Alcotest.test_case "write omission" `Quick test_omission_semantics;
          Alcotest.test_case "stale read" `Quick test_stale_read_semantics;
          Alcotest.test_case "stuck register" `Quick
            test_stuck_register_semantics;
          Alcotest.test_case "empty plan transparent" `Quick
            test_empty_plan_is_transparent;
        ] );
      ( "fuzzing",
        [
          Alcotest.test_case "crash-stop campaign clean (1000 cases)" `Quick
            test_crash_stop_campaign_clean;
          Alcotest.test_case "stuck register: found, shrunk, replayed" `Quick
            test_stuck_register_violation_found_shrunk_replayed;
          Alcotest.test_case "shrinker drops faults first" `Quick
            test_shrinker_drops_superfluous_faults;
          Alcotest.test_case "replay command carries the plan" `Quick
            test_fault_plan_in_replay_command;
        ] );
      ( "modelcheck",
        [
          Alcotest.test_case "n=2 safe under <=1 crash" `Quick
            (test_crash_runs_in_fault_free_space ~inputs:[| 1; 2 |]
               ~max_crashes:1);
          Alcotest.test_case "n=2 safe under <=2 crashes" `Quick
            (test_crash_runs_in_fault_free_space ~inputs:[| 1; 2 |]
               ~max_crashes:2);
          Alcotest.test_case "n=2 same group safe under crash" `Quick
            (test_crash_runs_in_fault_free_space ~inputs:[| 1; 1 |]
               ~max_crashes:2);
          Alcotest.test_case "planted invariant caught with crash witness"
            `Quick test_planted_bug_crash_witness;
          Alcotest.test_case "state bound" `Quick test_state_bound;
          Alcotest.test_case "traces to crashed states replay" `Quick
            test_crash_traces_replay;
        ] );
    ]
