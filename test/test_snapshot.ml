(* Tests of the Figure-3 wait-free snapshot algorithm: termination under
   fair and adversarial-ish schedules, validity and containment of outputs,
   level mechanics, solo executions, and property tests over random seeds,
   wirings and group assignments. *)

open Repro_util
module Snap = Algorithms.Snapshot
module Sys = Anonmem.System.Make (Snap)
module Scheduler = Anonmem.Scheduler

let iset = Alcotest.testable (Fmt.of_to_string Iset.to_string) Iset.equal

let run_to_completion ?(max_steps = 2_000_000) ~wiring ~inputs ~sched () =
  let n = Array.length inputs in
  let cfg = Snap.standard ~n in
  let st = Sys.init ~cfg ~wiring ~inputs in
  let stop, steps = Sys.run ~max_steps ~sched st in
  (cfg, st, stop, steps)

let outputs_exn st =
  Array.map (function Some o -> o | None -> Alcotest.fail "missing output")
    (Sys.outputs st)

let check_task inputs st =
  let outcome = Tasks.Outcome.make ~inputs ~outputs:(Sys.outputs st) () in
  (match Tasks.Snapshot_task.check_group_solution outcome with
  | Ok () -> ()
  | Error e ->
      Alcotest.fail
        ("group solution invalid: " ^ Tasks.Task_failure.to_string e));
  match Tasks.Snapshot_task.check_strong outcome with
  | Ok () -> ()
  | Error e ->
      Alcotest.fail
        ("strong containment invalid: " ^ Tasks.Task_failure.to_string e)

let test_solo_terminates_with_singleton () =
  let inputs = [| 7; 8; 9 |] in
  let wiring = Anonmem.Wiring.identity ~n:3 ~m:3 in
  let _, st, stop, _ =
    run_to_completion ~wiring ~inputs ~sched:(Scheduler.solo 0) ()
  in
  Alcotest.(check bool) "p0 halted (scheduler done)" true
    (stop = Sys.Scheduler_done && Sys.is_halted st 0);
  Alcotest.check iset "solo snapshot is own singleton" (Iset.of_list [ 7 ])
    (Option.get (Sys.output st 0));
  Alcotest.(check bool) "others still running" true
    ((not (Sys.is_halted st 1)) && not (Sys.is_halted st 2))

let test_round_robin_terminates_all () =
  let inputs = [| 1; 2; 3; 4 |] in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:11) ~n:4 ~m:4 in
  let _, st, stop, _ =
    run_to_completion ~wiring ~inputs ~sched:(Scheduler.round_robin ()) ()
  in
  Alcotest.(check bool) "all halted" true (stop = Sys.All_halted);
  check_task inputs st

let test_outputs_contain_own_and_only_participants () =
  let inputs = [| 5; 6; 7 |] in
  for seed = 0 to 30 do
    let wiring = Anonmem.Wiring.random (Rng.create ~seed) ~n:3 ~m:3 in
    let _, st, stop, _ =
      run_to_completion ~wiring ~inputs
        ~sched:(Scheduler.random (Rng.create ~seed:(seed + 1000)))
        ()
    in
    Alcotest.(check bool) "halted" true (stop = Sys.All_halted);
    let outs = outputs_exn st in
    Array.iteri
      (fun p o ->
        Alcotest.(check bool) "own input present" true (Iset.mem inputs.(p) o);
        Alcotest.(check bool) "only participants" true
          (Iset.subset o (Iset.of_list [ 5; 6; 7 ])))
      outs;
    check_task inputs st
  done

let test_containment_across_many_seeds () =
  (* The strong Section-5.3.2 property across 100 random runs of varying
     sizes, with group inputs. *)
  for seed = 0 to 99 do
    let n = 2 + (seed mod 6) in
    let groups = 1 + (seed mod n) in
    let inputs = Array.init n (fun i -> 1 + (i mod groups)) in
    match Core.solve_snapshot ~seed ~inputs () with
    | Ok _ -> () (* solve_snapshot validates internally *)
    | Error e -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e)
  done

let test_wait_free_under_hostile_priority () =
  (* A scheduler that starves nobody completely but heavily favours one
     processor must still let everyone terminate: run p0 900 steps out of
     each 1000. *)
  let inputs = [| 1; 2; 3 |] in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:5) ~n:3 ~m:3 in
  let rng = Rng.create ~seed:6 in
  let sched =
    Scheduler.fn ~name:"skewed" (fun ~time:_ ~mask ->
        if mask land 1 <> 0 && Rng.int rng 10 < 9 then 0
        else Bits.nth_set mask (Rng.int rng (Bits.popcount mask)))
  in
  let _, st, stop, _ = run_to_completion ~wiring ~inputs ~sched () in
  Alcotest.(check bool) "all halted despite skew" true (stop = Sys.All_halted);
  check_task inputs st

let test_m_less_than_n_still_terminates_fair () =
  (* With fewer registers than processors the algorithm is no longer a
     correct snapshot in all executions (Section 2.1), but under a fair
     scheduler it still terminates. *)
  let n = 4 and m = 3 in
  let cfg = Snap.cfg ~n ~m in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:2) ~n ~m in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2; 3; 4 |] in
  let stop, _ = Sys.run ~max_steps:2_000_000 ~sched:(Scheduler.round_robin ()) st in
  Alcotest.(check bool) "halted" true (stop = Sys.All_halted)

let test_levels_bounded () =
  let inputs = [| 1; 2; 3 |] in
  let cfg = Snap.standard ~n:3 in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:8) ~n:3 ~m:3 in
  let st = Sys.init ~cfg ~wiring ~inputs in
  let sched = Scheduler.random (Rng.create ~seed:9) in
  let _ =
    Sys.run ~max_steps:1_000_000 ~sched
      ~on_event:(fun ~time:_ _ ->
        Array.iter
          (fun l ->
            let lvl = Snap.level_of_local l in
            Alcotest.(check bool) "0 <= level <= n" true (lvl >= 0 && lvl <= 3))
          st.Sys.locals)
      st
  in
  ()

let test_register_levels_below_n () =
  (* A processor at level n halts without writing, so registers only ever
     hold levels < n. *)
  let inputs = [| 1; 2; 3 |] in
  let cfg = Snap.standard ~n:3 in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:21) ~n:3 ~m:3 in
  let st = Sys.init ~cfg ~wiring ~inputs in
  let sched = Scheduler.random (Rng.create ~seed:22) in
  let _ =
    Sys.run ~max_steps:1_000_000 ~sched
      ~on_event:(fun ~time:_ -> function
        | Sys.Write_ev { value; _ } ->
            Alcotest.(check bool) "written level < n" true (value.Snap.level < 3)
        | Sys.Read_ev _ -> ())
      st
  in
  ()

let test_same_group_processors () =
  (* All processors share one input: every snapshot is the singleton. *)
  let inputs = [| 4; 4; 4 |] in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:13) ~n:3 ~m:3 in
  let _, st, stop, _ =
    run_to_completion ~wiring ~inputs
      ~sched:(Scheduler.random (Rng.create ~seed:14))
      ()
  in
  Alcotest.(check bool) "halted" true (stop = Sys.All_halted);
  Array.iter
    (fun o -> Alcotest.check iset "singleton {4}" (Iset.of_list [ 4 ]) o)
    (outputs_exn st)

let test_two_processors_one_register_is_invalid_config () =
  Alcotest.check_raises "m=0 rejected"
    (Invalid_argument "Snapshot_core.cfg: need at least 1 register") (fun () ->
      ignore (Snap.cfg ~n:2 ~m:0))

let test_steps_grow_with_n () =
  (* Coarse shape check: median termination steps increase with n. *)
  let median n =
    let steps =
      List.filter_map
        (fun seed ->
          match
            Core.solve_snapshot ~seed ~inputs:(Array.init n (fun i -> i + 1)) ()
          with
          | Ok r -> Some r.Core.steps
          | Error _ -> None)
        (List.init 11 Fun.id)
    in
    List.nth (List.sort compare steps) (List.length steps / 2)
  in
  let m2 = median 2 and m5 = median 5 and m8 = median 8 in
  Alcotest.(check bool) "monotone-ish growth" true (m2 < m5 && m5 < m8)

let test_sweep_produces_growing_medians () =
  let rows = Analysis.Sweep.snapshot_steps ~seeds:7 ~ns:[ 2; 5; 8 ] () in
  (match rows with
  | [ a; b; c ] ->
      Alcotest.(check bool) "all runs completed" true
        (a.Analysis.Sweep.stats.Repro_util.Stats.count = 7
        && b.Analysis.Sweep.stats.Repro_util.Stats.count = 7
        && c.Analysis.Sweep.stats.Repro_util.Stats.count = 7);
      Alcotest.(check bool) "medians grow" true
        (a.Analysis.Sweep.stats.Repro_util.Stats.median
         < b.Analysis.Sweep.stats.Repro_util.Stats.median
        && b.Analysis.Sweep.stats.Repro_util.Stats.median
           < c.Analysis.Sweep.stats.Repro_util.Stats.median)
  | _ -> Alcotest.fail "three rows expected");
  let rendered = Analysis.Sweep.to_table ~param_name:"n" rows in
  Alcotest.(check bool) "table renders" true (String.length rendered > 50)

let test_scheduler_sensitivity_rows () =
  let rows = Analysis.Sweep.scheduler_sensitivity ~seeds:5 ~n:4 () in
  Alcotest.(check int) "two schedulers" 2 (List.length rows);
  List.iter
    (fun (_, stats) ->
      Alcotest.(check int) "all runs done" 5 stats.Repro_util.Stats.count)
    rows

(* Property: for random wiring/schedule/groups, solve_snapshot validates. *)
let prop_snapshot_valid =
  QCheck.Test.make ~name:"snapshot task solved for random configs" ~count:60
    QCheck.(pair (int_range 2 7) (int_bound 10_000))
    (fun (n, seed) ->
      let groups = 1 + (seed mod n) in
      let inputs = Array.init n (fun i -> 1 + ((i + seed) mod groups)) in
      match Core.solve_snapshot ~seed ~inputs () with
      | Ok _ -> true
      | Error _ -> false)

let () =
  Alcotest.run "snapshot"
    [
      ( "figure3",
        [
          Alcotest.test_case "solo terminates with singleton" `Quick
            test_solo_terminates_with_singleton;
          Alcotest.test_case "round-robin terminates all" `Quick
            test_round_robin_terminates_all;
          Alcotest.test_case "validity of outputs" `Quick
            test_outputs_contain_own_and_only_participants;
          Alcotest.test_case "containment across 100 seeds" `Slow
            test_containment_across_many_seeds;
          Alcotest.test_case "wait-free under skewed scheduler" `Quick
            test_wait_free_under_hostile_priority;
          Alcotest.test_case "m<n terminates under fairness" `Quick
            test_m_less_than_n_still_terminates_fair;
          Alcotest.test_case "levels bounded by n" `Quick test_levels_bounded;
          Alcotest.test_case "registers hold levels < n" `Quick
            test_register_levels_below_n;
          Alcotest.test_case "single group" `Quick test_same_group_processors;
          Alcotest.test_case "config validation" `Quick
            test_two_processors_one_register_is_invalid_config;
          Alcotest.test_case "steps grow with n" `Slow test_steps_grow_with_n;
          Alcotest.test_case "sweep: growing medians" `Quick
            test_sweep_produces_growing_medians;
          Alcotest.test_case "sweep: scheduler sensitivity" `Quick
            test_scheduler_sensitivity_rows;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_snapshot_valid ] );
    ]
