(* Differential pinning of the flat int-machines against the boxed
   interpreter.

   For every protocol that ships a {!Anonmem.Protocol.S.flat} machine the
   same case — configuration, wiring, inputs, adversary stream, fault
   plan, step budget — is executed three ways:

   - [flat]: the default path, flat register file when eligible;
   - [boxed]: [Sys.run ~flat:false], the boxed interpreter;
   - [traced]: the boxed interpreter under a no-op [on_event] observer.

   All three must agree bit-for-bit on the stop reason, total steps,
   per-processor step counts, outputs, and the final register and local
   states ([last_writer] excluded: the flat machines do not track it).
   This is deliberately stronger than the harness-level differential in
   [test_fuzz]: it compares the synced-back state itself, so a flat
   machine whose [sync] reconstructs a semantically-equal but
   structurally different value fails here, and it covers the
   non-default configurations ([cfg_eager], [cfg_forgetful],
   [cfg_majority]).  A last case drives the consensus machine past its
   row capacity, so the [Protocol.Fallback] continuation runs. *)

open Repro_util

module Diff (P : Anonmem.Protocol.S with type input = int) = struct
  module Sys = Anonmem.System.Make (P)

  type outcome = {
    stop : Sys.stop_reason;
    steps : int;
    step_counts : int array;
    outputs : P.output option array;
    registers : P.value array;
    locals : P.local array;
  }

  type arm = Flat | Boxed | Traced

  let arm_name = function
    | Flat -> "flat"
    | Boxed -> "boxed"
    | Traced -> "traced"

  let run_arm ~arm ~max_steps ?faults ~sched state =
    let step_counts = Array.make (Array.length state.Sys.locals) 0 in
    let stop, steps =
      match arm with
      | Flat -> Sys.run ~max_steps ?faults ~step_counts ~sched state
      | Boxed ->
          Sys.run ~max_steps ?faults ~step_counts ~flat:false ~sched state
      | Traced ->
          Sys.run ~max_steps ?faults ~step_counts ~sched
            ~on_event:(fun ~time:_ _ -> ())
            state
    in
    {
      stop;
      steps;
      step_counts;
      outputs = Sys.outputs state;
      registers = state.Sys.registers;
      locals = state.Sys.locals;
    }

  (* Everything that determines the execution is re-derived from
     [case_seed], so each arm sees an identical fresh case. *)
  let exec ~arm ~cfg ~case_seed ~n ~m ~profile ~max_steps =
    let rng = Rng.create ~seed:case_seed in
    let wiring = Anonmem.Wiring.random rng ~n ~m in
    let inputs = Fuzzing.Gen.random_inputs rng ~n in
    let shape = Fuzzing.Schedule.random rng ~n ~horizon:max_steps in
    let faults =
      match profile with
      | Fuzzing.Fault_gen.No_faults -> None
      | profile ->
          Some
            (Fuzzing.Fault_gen.random rng ~profile ~n ~m
               ~horizon:(min max_steps (50 * n)))
    in
    let sched =
      Fuzzing.Schedule.scheduler
        (Rng.create ~seed:(case_seed lxor 0x5EED))
        shape
    in
    run_arm ~arm ~max_steps ?faults ~sched (Sys.init ~cfg ~wiring ~inputs)

  let check_agree ~what ~ctx a b =
    let fail field = Alcotest.failf "%s: %s disagree on %s" ctx what field in
    if a.stop <> b.stop then fail "stop reason";
    if a.steps <> b.steps then fail "step total";
    if a.step_counts <> b.step_counts then fail "step counts";
    if a.outputs <> b.outputs then fail "outputs";
    if a.registers <> b.registers then fail "registers";
    if a.locals <> b.locals then fail "locals"

  let case ~name ~cfg_of ~case_seed ~n ~m ~profile ~max_steps =
    let cfg = cfg_of ~n ~m in
    let run arm = exec ~arm ~cfg ~case_seed ~n ~m ~profile ~max_steps in
    let flat = run Flat and boxed = run Boxed and traced = run Traced in
    let ctx =
      Printf.sprintf "%s seed=%d n=%d m=%d faults=%s" name case_seed n m
        (Fuzzing.Fault_gen.name profile)
    in
    check_agree ~what:(arm_name Flat ^ " vs " ^ arm_name Boxed) ~ctx flat
      boxed;
    check_agree ~what:(arm_name Flat ^ " vs " ^ arm_name Traced) ~ctx flat
      traced
end

(* One row of the matrix: a protocol, a configuration builder and a
   register-count rule.  [m_of] keeps rt_mutex on its coprime register
   counts; everything else fuzzes m = n like the paper's algorithms.
   Each entry runs the full seed x size x fault-profile grid for one
   (protocol, cfg) pair. *)
let matrix_entry (type c) ~name
    (module P : Anonmem.Protocol.S with type input = int and type cfg = c)
    ~(cfg_of : n:int -> m:int -> c) ~(m_of : n:int -> int) () =
  let module D = Diff (P) in
  let profiles =
    Fuzzing.Fault_gen.
      [ No_faults; Crash_stop_only; Crash_recover; Omission; Stuck; Stale;
        Mixed ]
  in
  let sizes = [ (2, 400); (3, 600); (6, 1200); (13, 2500); (29, 4000) ] in
  List.iter
    (fun (n, max_steps) ->
      let m = m_of ~n in
      List.iter
        (fun profile ->
          for k = 0 to 3 do
            let case_seed = (Hashtbl.hash (name, n, k) * 7919) + k in
            D.case ~name ~cfg_of ~case_seed ~n ~m ~profile ~max_steps
          done)
        profiles)
    sizes

let m_same ~n = n
let m_mutex ~n = Fuzzing.Targets.portfolio_m ~n

let entries =
  [
    ( "snapshot",
      matrix_entry ~name:"snapshot"
        (module Algorithms.Snapshot)
        ~cfg_of:Algorithms.Snapshot.cfg ~m_of:m_same );
    ( "double_collect",
      matrix_entry ~name:"double_collect"
        (module Algorithms.Double_collect)
        ~cfg_of:Algorithms.Double_collect.cfg ~m_of:m_same );
    ( "renaming",
      matrix_entry ~name:"renaming"
        (module Algorithms.Renaming)
        ~cfg_of:Algorithms.Renaming.cfg ~m_of:m_same );
    ( "consensus",
      matrix_entry ~name:"consensus"
        (module Algorithms.Consensus)
        ~cfg_of:Algorithms.Consensus.cfg ~m_of:m_same );
    ( "weak_leader",
      matrix_entry ~name:"weak_leader"
        (module Algorithms.Weak_leader)
        ~cfg_of:Algorithms.Weak_leader.cfg ~m_of:m_same );
    ( "weak_leader_majority",
      matrix_entry ~name:"weak_leader_majority"
        (module Algorithms.Weak_leader)
        ~cfg_of:Algorithms.Weak_leader.cfg_majority ~m_of:m_same );
    ( "rt_mutex",
      matrix_entry ~name:"rt_mutex"
        (module Algorithms.Rt_mutex)
        ~cfg_of:Algorithms.Rt_mutex.cfg ~m_of:m_mutex );
    ( "rt_mutex_eager",
      matrix_entry ~name:"rt_mutex_eager"
        (module Algorithms.Rt_mutex)
        ~cfg_of:Algorithms.Rt_mutex.cfg_eager ~m_of:m_mutex );
    ( "naming",
      matrix_entry ~name:"naming"
        (module Algorithms.Naming)
        ~cfg_of:Algorithms.Naming.cfg ~m_of:m_same );
    ( "naming_forgetful",
      matrix_entry ~name:"naming_forgetful"
        (module Algorithms.Naming)
        ~cfg_of:Algorithms.Naming.cfg_forgetful ~m_of:m_same );
  ]

(* A QCheck property on top of the fixed grid: random seeds and sizes
   through the snapshot machine (the benchmark's gated protocol), so CI
   explores beyond the deterministic matrix. *)
let prop_snapshot_random =
  let module D = Diff (Algorithms.Snapshot) in
  QCheck.Test.make ~name:"flat/boxed/traced agree on random snapshot cases"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 2 30))
    (fun (case_seed, n) ->
      List.iter
        (fun profile ->
          D.case ~name:"snapshot(qcheck)" ~cfg_of:Algorithms.Snapshot.cfg
            ~case_seed ~n ~m:n ~profile ~max_steps:1500)
        Fuzzing.Fault_gen.[ No_faults; Mixed ];
      true)

let prop_rt_mutex_random =
  let module D = Diff (Algorithms.Rt_mutex) in
  QCheck.Test.make
    ~name:"flat/boxed/traced agree on random rt_mutex cases (total machine)"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 2 20))
    (fun (case_seed, n) ->
      List.iter
        (fun profile ->
          D.case ~name:"rt_mutex(qcheck)" ~cfg_of:Algorithms.Rt_mutex.cfg
            ~case_seed ~n ~m:(m_mutex ~n) ~profile ~max_steps:1500)
        Fuzzing.Fault_gen.[ No_faults; Stuck; Stale; Mixed ];
      true)

(* The consensus machine's rows hold the largest view of the state it
   starts from plus 128 pairs, and a merge that would outgrow a row is
   refused with [Protocol.Fallback]; the boxed interpreter then replays
   the refused step and finishes the run.  No fair, weighted or periodic
   adversary tried grows a view by 128 minted pairs (random runs stop at
   n + 2), so the case preloads two registers with disjoint 200-pair
   views: a scan that reads both merges them into a 400-pair view.  The
   adversary is random, so a continuation that re-picked instead of
   replaying the refused step would desync its draws.  The three arms
   must still agree bit for bit. *)
let test_consensus_fallback () =
  let module C = Algorithms.Consensus in
  let module D = Diff (C) in
  let n = 2 and m = 3 and rows = 200 in
  let cfg = C.cfg ~n ~m in
  let preload v ts0 =
    {
      C.Snap.Core.view = C.Pset.of_list (List.init rows (fun t -> (v, ts0 + t)));
      level = 0;
    }
  in
  let longest (o : D.outcome) =
    Array.fold_left
      (fun acc (v : C.value) -> Int.max acc (C.Pset.cardinal v.C.Snap.Core.view))
      0 o.D.registers
  in
  let run arm =
    let state =
      D.Sys.init ~cfg ~wiring:(Anonmem.Wiring.identity ~n ~m) ~inputs:[| 0; 1 |]
    in
    state.D.Sys.registers.(1) <- preload 0 0;
    state.D.Sys.registers.(2) <- preload 1 rows;
    D.run_arm ~arm ~max_steps:1_000
      ~sched:(Anonmem.Scheduler.random (Rng.create ~seed:0))
      state
  in
  let flat = run D.Flat in
  let capacity = rows + 128 in
  if longest flat <= capacity then
    Alcotest.failf "no view outgrew the row capacity %d (longest %d)" capacity
      (longest flat);
  D.check_agree ~what:"flat vs boxed" ~ctx:"consensus fallback" flat
    (run D.Boxed);
  D.check_agree ~what:"flat vs traced" ~ctx:"consensus fallback" flat
    (run D.Traced)

let () =
  Alcotest.run "flat_diff"
    [
      ( "matrix",
        List.map
          (fun (name, body) -> Alcotest.test_case name `Quick body)
          entries );
      ( "resume",
        [ Alcotest.test_case "consensus outgrows its rows" `Quick
            test_consensus_fallback ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_random;
          QCheck_alcotest.to_alcotest prop_rt_mutex_random;
        ] );
    ]
