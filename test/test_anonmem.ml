(* Tests of the substrate: wirings, schedulers, and the operational
   semantics of System (routing through permutations, last-writer ghost
   state, halting). *)

open Repro_util
module Wiring = Anonmem.Wiring
module Scheduler = Anonmem.Scheduler
module WS = Algorithms.Write_scan
module Sys = Anonmem.System.Make (WS)

(* --- Wiring -------------------------------------------------------------- *)

let test_wiring_routing () =
  let w = Wiring.of_lists [ [ 1; 2; 0 ]; [ 0; 1; 2 ] ] in
  Alcotest.(check int) "p0 private 0 -> phys 1" 1 (Wiring.phys w ~p:0 0);
  Alcotest.(check int) "p0 private 2 -> phys 0" 0 (Wiring.phys w ~p:0 2);
  Alcotest.(check int) "p1 identity" 2 (Wiring.phys w ~p:1 2);
  (* the paper's sigma^-1 direction *)
  Alcotest.(check int) "p0 reads phys 1 via private 0" 0
    (Wiring.local_of_phys w ~p:0 1)

let test_wiring_validation () =
  Alcotest.check_raises "unequal sizes"
    (Invalid_argument "Wiring.make: permutations of unequal size") (fun () ->
      ignore
        (Wiring.make
           [| Permutation.identity 2; Permutation.identity 3 |]))

let test_wiring_enumerate () =
  Alcotest.(check int) "fixed first: (3!)^2" 36
    (List.length (Wiring.enumerate ~n:3 ~m:3 ~fix_first:true));
  Alcotest.(check int) "free: (2!)^2" 4
    (List.length (Wiring.enumerate ~n:2 ~m:2 ~fix_first:false));
  let ws = Wiring.enumerate ~n:2 ~m:3 ~fix_first:true in
  Alcotest.(check int) "n=2 m=3 fixed: 6" 6 (List.length ws);
  List.iter
    (fun w ->
      Alcotest.(check bool) "first is identity" true
        (Permutation.equal (Wiring.perm w ~p:0) (Permutation.identity 3)))
    ws

let rec fact n = if n <= 1 then 1 else n * fact (n - 1)

let prop_wiring_enumerate_counts =
  QCheck.Test.make ~name:"enumerate: (m!)^n full, (m!)^(n-1) with fix_first"
    ~count:40
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (n, m) ->
      let pow b e =
        List.fold_left (fun acc _ -> acc * b) 1 (List.init e Fun.id)
      in
      List.length (Wiring.enumerate ~n ~m ~fix_first:false) = pow (fact m) n
      && List.length (Wiring.enumerate ~n ~m ~fix_first:true)
         = pow (fact m) (n - 1))

let prop_wiring_enumerate_distinct =
  QCheck.Test.make ~name:"enumerate yields distinct wirings" ~count:20
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (n, m) ->
      let ws = Wiring.enumerate ~n ~m ~fix_first:false in
      let rec all_distinct = function
        | [] -> true
        | w :: rest ->
            (not (List.exists (Wiring.equal w) rest)) && all_distinct rest
      in
      all_distinct ws)

(* Soundness of the fix_first symmetry reduction: every full wiring is a
   global register renaming of one with processor 0 wired identically.
   Renaming the physical registers by rho turns sigma_p into
   rho . sigma_p; choosing rho = sigma_0^-1 pins processor 0 to the
   identity, and the canonical form must appear in the reduced
   enumeration. *)
let test_wiring_symmetry_reduction_sound () =
  List.iter
    (fun (n, m) ->
      let full = Wiring.enumerate ~n ~m ~fix_first:false in
      let reduced = Wiring.enumerate ~n ~m ~fix_first:true in
      List.iter
        (fun w ->
          let rho = Permutation.inverse (Wiring.perm w ~p:0) in
          let canon =
            Wiring.make
              (Array.init n (fun p ->
                   Permutation.compose rho (Wiring.perm w ~p)))
          in
          Alcotest.(check bool) "canonical form is enumerated" true
            (List.exists (Wiring.equal canon) reduced))
        full)
    [ (2, 2); (2, 3); (3, 2); (3, 3) ]

let test_wiring_random_deterministic () =
  let w1 = Wiring.random (Rng.create ~seed:9) ~n:4 ~m:4 in
  let w2 = Wiring.random (Rng.create ~seed:9) ~n:4 ~m:4 in
  Alcotest.(check bool) "same seed same wiring" true (Wiring.equal w1 w2)

(* --- Scheduler ----------------------------------------------------------- *)

let test_round_robin_fair () =
  let sched = Scheduler.round_robin () in
  let enabled = [ 0; 1; 2 ] in
  let picks =
    List.init 9 (fun time ->
        Option.get (Scheduler.pick sched ~time ~enabled))
  in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ] picks

let test_round_robin_skips_halted () =
  let sched = Scheduler.round_robin () in
  let p1 = Option.get (Scheduler.pick sched ~time:0 ~enabled:[ 0; 1; 2 ]) in
  let p2 = Option.get (Scheduler.pick sched ~time:1 ~enabled:[ 0; 2 ]) in
  let p3 = Option.get (Scheduler.pick sched ~time:2 ~enabled:[ 0; 2 ]) in
  Alcotest.(check (list int)) "skips 1" [ 0; 2; 0 ] [ p1; p2; p3 ]

let test_solo () =
  let sched = Scheduler.solo 1 in
  Alcotest.(check (option int)) "picks 1" (Some 1)
    (Scheduler.pick sched ~time:0 ~enabled:[ 0; 1; 2 ]);
  Alcotest.(check (option int)) "gives up when 1 halted" None
    (Scheduler.pick sched ~time:1 ~enabled:[ 0; 2 ])

let test_script () =
  let sched = Scheduler.script [ 2; 2; 0 ] in
  Alcotest.(check (option int)) "first" (Some 2)
    (Scheduler.pick sched ~time:0 ~enabled:[ 0; 1; 2 ]);
  Alcotest.(check (option int)) "second" (Some 2)
    (Scheduler.pick sched ~time:1 ~enabled:[ 0; 1; 2 ]);
  Alcotest.(check (option int)) "third" (Some 0)
    (Scheduler.pick sched ~time:2 ~enabled:[ 0; 1; 2 ]);
  Alcotest.(check (option int)) "exhausted" None
    (Scheduler.pick sched ~time:3 ~enabled:[ 0; 1; 2 ])

let test_script_cycle () =
  let sched = Scheduler.script ~cycle:true [ 1; 0 ] in
  let picks =
    List.init 6 (fun t -> Option.get (Scheduler.pick sched ~time:t ~enabled:[ 0; 1 ]))
  in
  Alcotest.(check (list int)) "repeats" [ 1; 0; 1; 0; 1; 0 ] picks

let test_script_cycle_all_halted () =
  let sched = Scheduler.script ~cycle:true [ 1; 1 ] in
  Alcotest.(check (option int)) "stops rather than spinning" None
    (Scheduler.pick sched ~time:0 ~enabled:[ 0 ])

let test_script_then_cycle () =
  let sched = Scheduler.script_then_cycle ~prefix:[ 0; 0 ] ~cycle:[ 1; 2 ] in
  let picks =
    List.init 8 (fun t -> Option.get (Scheduler.pick sched ~time:t ~enabled:[ 0; 1; 2 ]))
  in
  Alcotest.(check (list int)) "prefix then cycle" [ 0; 0; 1; 2; 1; 2; 1; 2 ] picks

let test_script_then_cycle_halting () =
  let sched = Scheduler.script_then_cycle ~prefix:[ 0 ] ~cycle:[ 1 ] in
  Alcotest.(check (option int)) "prefix" (Some 0)
    (Scheduler.pick sched ~time:0 ~enabled:[ 0; 1 ]);
  Alcotest.(check (option int)) "cycle skips halted, gives up" None
    (Scheduler.pick sched ~time:1 ~enabled:[ 0 ])

let test_recorded_scheduler () =
  let sched, picks = Scheduler.recorded (Scheduler.script [ 2; 0; 1; 0 ]) in
  for t = 0 to 3 do
    ignore (Scheduler.pick sched ~time:t ~enabled:[ 0; 1; 2 ])
  done;
  Alcotest.(check (list int)) "picks oldest first" [ 2; 0; 1; 0 ] (picks ());
  (* A refused pick (script exhausted) records nothing. *)
  Alcotest.(check (option int)) "exhausted" None
    (Scheduler.pick sched ~time:4 ~enabled:[ 0; 1; 2 ]);
  Alcotest.(check (list int)) "unchanged" [ 2; 0; 1; 0 ] (picks ())

let test_crash_scheduler () =
  let sched =
    Scheduler.crash ~crash_at:[| Some 2; None |] (Scheduler.round_robin ())
  in
  (* Before time 2 both run; from time 2 on processor 0 is gone forever. *)
  let picks =
    List.init 6 (fun t -> Scheduler.pick sched ~time:t ~enabled:[ 0; 1 ])
  in
  Alcotest.(check (list (option int)))
    "p0 crashes at time 2"
    [ Some 0; Some 1; Some 1; Some 1; Some 1; Some 1 ]
    picks;
  (* If every live processor has crashed, the run halts. *)
  let dead = Scheduler.crash ~crash_at:[| Some 0 |] (Scheduler.round_robin ()) in
  Alcotest.(check (option int)) "all crashed" None
    (Scheduler.pick dead ~time:5 ~enabled:[ 0 ])

let test_random_scheduler_picks_enabled () =
  let sched = Scheduler.random (Rng.create ~seed:3) in
  for t = 0 to 200 do
    match Scheduler.pick sched ~time:t ~enabled:[ 1; 4; 5 ] with
    | Some p -> Alcotest.(check bool) "enabled" true (List.mem p [ 1; 4; 5 ])
    | None -> Alcotest.fail "random scheduler returned None on non-empty"
  done

(* --- System -------------------------------------------------------------- *)

let mk_state ?(wiring_lists = [ [ 0; 1 ]; [ 1; 0 ] ]) () =
  let cfg = WS.cfg ~n:2 ~m:2 in
  let wiring = Wiring.of_lists wiring_lists in
  (cfg, Sys.init ~cfg ~wiring ~inputs:[| 1; 2 |])

let test_system_write_routes_through_wiring () =
  let _, st = mk_state () in
  (* p1 (index 1) writes its private register 0, which is physical 1 *)
  (match Sys.step_in_place st 1 with
  | Sys.Write_ev { phys_reg; local_reg; value; _ } ->
      Alcotest.(check int) "local" 0 local_reg;
      Alcotest.(check int) "phys" 1 phys_reg;
      Alcotest.(check bool) "value is p1's view" true (Iset.equal value (Iset.of_list [ 2 ]))
  | Sys.Read_ev _ -> Alcotest.fail "expected a write");
  Alcotest.(check bool) "register 1 updated" true
    (Iset.equal st.Sys.registers.(1) (Iset.of_list [ 2 ]));
  Alcotest.(check (option int)) "last writer" (Some 1) st.Sys.last_writer.(1)

let test_system_read_from_writer () =
  let _, st = mk_state () in
  ignore (Sys.step_in_place st 1);
  (* p0 writes phys 0 then scans: private 0 = phys 0, private 1 = phys 1 *)
  ignore (Sys.step_in_place st 0);
  ignore (Sys.step_in_place st 0);
  match Sys.step_in_place st 0 with
  | Sys.Read_ev { phys_reg; value; writer; _ } ->
      Alcotest.(check int) "phys 1" 1 phys_reg;
      Alcotest.(check bool) "reads p1's value" true (Iset.equal value (Iset.of_list [ 2 ]));
      Alcotest.(check (option int)) "reads from p1" (Some 1) writer
  | Sys.Write_ev _ -> Alcotest.fail "expected a read"

let test_system_run_max_steps () =
  let _, st = mk_state () in
  let stop, steps =
    Sys.run ~max_steps:17 ~sched:(Scheduler.round_robin ()) st
  in
  Alcotest.(check bool) "max steps (write-scan never halts)" true
    (stop = Sys.Max_steps);
  Alcotest.(check int) "exactly 17" 17 steps

let test_system_event_callback () =
  let _, st = mk_state () in
  let count = ref 0 in
  let _ =
    Sys.run ~max_steps:10 ~sched:(Scheduler.round_robin ())
      ~on_event:(fun ~time:_ _ -> incr count)
      st
  in
  Alcotest.(check int) "one event per step" 10 !count

let test_system_bad_inputs () =
  let cfg = WS.cfg ~n:2 ~m:2 in
  let wiring = Wiring.identity ~n:2 ~m:2 in
  Alcotest.check_raises "wrong input count"
    (Invalid_argument "System.init: wrong number of inputs") (fun () ->
      ignore (Sys.init ~cfg ~wiring ~inputs:[| 1 |]));
  let wiring3 = Wiring.identity ~n:3 ~m:2 in
  Alcotest.check_raises "wrong wiring"
    (Invalid_argument "System.init: wiring has wrong number of processors")
    (fun () -> ignore (Sys.init ~cfg ~wiring:wiring3 ~inputs:[| 1; 2 |]))

(* --- Trace / covering metrics ---------------------------------------------- *)

module Trace = Anonmem.Trace.Make (WS)

let test_trace_records_all_events () =
  let cfg = WS.cfg ~n:2 ~m:2 in
  let wiring = Wiring.identity ~n:2 ~m:2 in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2 |] in
  let tr = Trace.create () in
  let _ =
    Sys.run ~max_steps:30 ~sched:(Scheduler.round_robin ())
      ~on_event:(Trace.on_event tr) st
  in
  Alcotest.(check int) "30 events" 30 (Trace.length tr);
  let c = Trace.covering tr in
  Alcotest.(check int) "reads + writes = steps" 30
    (c.Trace.reads + c.Trace.writes)

let test_trace_covering_lockstep () =
  (* In the lockstep covering pattern, p1 overwrites p0's register every
     round before anyone reads it: half of p0's writes are lost. *)
  let cfg = WS.cfg ~n:2 ~m:2 in
  let wiring = Wiring.identity ~n:2 ~m:2 in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2 |] in
  let tr = Trace.create () in
  let _ =
    Sys.run ~max_steps:120 ~sched:(Scheduler.round_robin ())
      ~on_event:(Trace.on_event tr) st
  in
  let c = Trace.covering tr in
  Alcotest.(check bool)
    (Printf.sprintf "many overwrites (%d) and lost writes (%d)"
       c.Trace.overwrites c.Trace.lost_writes)
    true
    (c.Trace.overwrites > 10 && c.Trace.lost_writes > 10)

let test_trace_solo_no_overwrites () =
  let cfg = WS.cfg ~n:2 ~m:2 in
  let wiring = Wiring.identity ~n:2 ~m:2 in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2 |] in
  let tr = Trace.create () in
  let _ =
    Sys.run ~max_steps:60 ~sched:(Scheduler.solo 0) ~on_event:(Trace.on_event tr)
      st
  in
  let c = Trace.covering tr in
  Alcotest.(check int) "no cross-processor overwrites" 0 c.Trace.overwrites

let test_trace_table_renders () =
  let cfg = WS.cfg ~n:2 ~m:2 in
  let wiring = Wiring.identity ~n:2 ~m:2 in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2 |] in
  let tr = Trace.create () in
  let _ =
    Sys.run ~max_steps:6 ~sched:(Scheduler.round_robin ())
      ~on_event:(Trace.on_event tr) st
  in
  let rendered = Repro_util.Text_table.render (Trace.to_table cfg tr) in
  Alcotest.(check int) "header + separator + 6 rows" 8
    (List.length (String.split_on_char '\n' (String.trim rendered)))

let () =
  Alcotest.run "anonmem"
    [
      ( "wiring",
        [
          Alcotest.test_case "routing" `Quick test_wiring_routing;
          Alcotest.test_case "validation" `Quick test_wiring_validation;
          Alcotest.test_case "enumeration" `Quick test_wiring_enumerate;
          Alcotest.test_case "random deterministic" `Quick
            test_wiring_random_deterministic;
          Alcotest.test_case "symmetry reduction sound" `Quick
            test_wiring_symmetry_reduction_sound;
          QCheck_alcotest.to_alcotest prop_wiring_enumerate_counts;
          QCheck_alcotest.to_alcotest prop_wiring_enumerate_distinct;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "round-robin fair" `Quick test_round_robin_fair;
          Alcotest.test_case "round-robin skips halted" `Quick
            test_round_robin_skips_halted;
          Alcotest.test_case "solo" `Quick test_solo;
          Alcotest.test_case "script" `Quick test_script;
          Alcotest.test_case "cyclic script" `Quick test_script_cycle;
          Alcotest.test_case "cyclic script all halted" `Quick
            test_script_cycle_all_halted;
          Alcotest.test_case "script then cycle" `Quick test_script_then_cycle;
          Alcotest.test_case "script then cycle halting" `Quick
            test_script_then_cycle_halting;
          Alcotest.test_case "random picks enabled" `Quick
            test_random_scheduler_picks_enabled;
          Alcotest.test_case "recorded" `Quick test_recorded_scheduler;
          Alcotest.test_case "crash" `Quick test_crash_scheduler;
        ] );
      ( "system",
        [
          Alcotest.test_case "write routes through wiring" `Quick
            test_system_write_routes_through_wiring;
          Alcotest.test_case "read records writer" `Quick test_system_read_from_writer;
          Alcotest.test_case "run bounded" `Quick test_system_run_max_steps;
          Alcotest.test_case "event callback" `Quick test_system_event_callback;
          Alcotest.test_case "init validation" `Quick test_system_bad_inputs;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records all events" `Quick test_trace_records_all_events;
          Alcotest.test_case "covering in lockstep" `Quick test_trace_covering_lockstep;
          Alcotest.test_case "solo has no overwrites" `Quick
            test_trace_solo_no_overwrites;
          Alcotest.test_case "table rendering" `Quick test_trace_table_renders;
        ] );
    ]
