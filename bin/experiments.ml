(* Regenerates every artifact of the paper and prints a paper-vs-measured
   report; EXPERIMENTS.md records one run of this program.

   Usage: dune exec bin/experiments.exe [-- --full]

   --full additionally runs the n=3 exhaustive model check over all 36
   wirings (the paper's TLC claim), which explores hundreds of millions of
   states and takes a while, and the n=4 bounded-quotient scaling rows
   (about 28.5M states; several GiB of peak RSS); the default run checks
   n=2 exhaustively and n=3 on a subset of wirings.  The exit status is
   non-zero when a fingerprint row loses count parity with its exact
   twin. *)

let full = Array.exists (( = ) "--full") Sys.argv

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let iset_str = Repro_util.Iset.to_string

(* F2: Figure 2 *)

let figure2 () =
  header "F2: Figure 2 - the pathological execution";
  let rows = Analysis.Figure2.generate () in
  print_string (Repro_util.Text_table.render (Analysis.Figure2.to_table rows));
  let matches =
    List.for_all2
      (fun (g : Analysis.Figure2.row) (e : Analysis.Figure2.row) ->
        List.for_all2 Repro_util.Iset.equal g.registers e.registers
        && List.for_all2 Repro_util.Iset.equal g.views e.views)
      rows Analysis.Figure2.expected_rows
  in
  Printf.printf "matches the paper's table row for row: %b\n" matches;
  (* cycle check: actions 14-22 repeat 5-13 *)
  let rows22 = Analysis.Figure2.generate ~actions:22 () in
  let nth k = List.nth rows22 k in
  let cycle_ok =
    List.for_all
      (fun k ->
        let a : Analysis.Figure2.row = nth k and b = nth (k + 9) in
        List.for_all2 Repro_util.Iset.equal a.registers b.registers
        && List.for_all2 Repro_util.Iset.equal a.views b.views)
      [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
  in
  Printf.printf "steps 5-13 repeat verbatim as 14-22: %b\n" cycle_ok;
  let module E = Analysis.Figure2.Write_scan_ext in
  let cfg = Algorithms.Write_scan.cfg ~n:5 ~m:3 in
  let r = E.run ~cfg ~cycles:50 () in
  let summarize q =
    let s = E.scan_summary r.E.extra_events.(q) in
    let v = Algorithms.Write_scan.view_of_local r.E.state.E.Sys.locals.(q) in
    Printf.printf
      "  %s: view %s, %d scans, %d consecutive clean scans at the end\n"
      (if q = 3 then "p " else "p'")
      (iset_str v) s.E.total_scans s.E.final_clean_streak
  in
  print_endline "extension (p, p' with input 1, fed incomparable sets forever):";
  summarize 3;
  summarize 4;
  let module S = Analysis.Figure2.Snapshot_ext in
  let cfg = Algorithms.Snapshot.cfg ~n:5 ~m:3 in
  let r = S.run ~cfg ~cycles:50 () in
  print_endline "same adversary vs the Figure-3 snapshot algorithm:";
  Array.iteri
    (fun q l ->
      Printf.printf "  p%d: level %d%s\n" (q + 1)
        (Algorithms.Snapshot.level_of_local l)
        (match Algorithms.Snapshot.output cfg l with
        | Some o -> " TERMINATED with " ^ iset_str o
        | None -> ""))
    r.S.state.S.Sys.locals

(* T48: stable views *)

let theorem48 () =
  header "T48: Theorem 4.8 - stable views form a DAG with a unique source";
  let trials = 200 in
  let ok = ref 0 and max_views = ref 0 in
  for seed = 0 to trials - 1 do
    let n = 2 + (seed mod 7) in
    let m = 2 + (seed mod 5) in
    let inputs = Array.init n (fun i -> 1 + (i mod max 2 (n - 1))) in
    match Core.stable_view_analysis ~seed ~n ~m ~inputs () with
    | Ok r ->
        let g = r.Analysis.Stable_views.graph in
        if Analysis.View_graph.satisfies_theorem_4_8 g then incr ok;
        max_views := max !max_views (Analysis.View_graph.vertex_count g)
    | Error _ -> ()
  done;
  Printf.printf
    "%d/%d random configurations (n in 2..8, m in 2..6, random wirings and \
     fair schedules) satisfied the theorem; largest stable-view graph had %d \
     vertices\n"
    !ok trials !max_views;
  (* The Figure-2 schedule realizes a non-trivial stable-view graph: three
     vertices, unique source {1}. *)
  let cfg = Algorithms.Write_scan.cfg ~n:3 ~m:3 in
  let r =
    Analysis.Stable_views.run ~window:72 ~cfg
      ~wiring:(Analysis.Figure2.base_wiring ())
      ~inputs:[| 1; 2; 3 |] ~live:[ 0; 1; 2 ]
      ~sched:
        (Anonmem.Scheduler.script_then_cycle
           ~prefix:Analysis.Figure2.step_prefix ~cycle:Analysis.Figure2.step_cycle)
      ()
  in
  match r with
  | Ok r ->
      let g = r.Analysis.Stable_views.graph in
      Printf.printf
        "figure-2 schedule: stable views %s; DAG with unique source: %b \
         (source %s)\n"
        (String.concat " " (List.map iset_str (Analysis.View_graph.views g)))
        (Analysis.View_graph.satisfies_theorem_4_8 g)
        (match Analysis.View_graph.unique_source g with
        | Some v -> iset_str v
        | None -> "-")
  | Error e -> Printf.printf "figure-2 schedule analysis failed: %s\n" e

(* F3: snapshot runs *)

let fig3 () =
  header "F3: Figure 3 - wait-free snapshot (N registers, N processors)";
  print_endline "steps to completion, random fair scheduler, 21 seeds per n:";
  print_string
    (Analysis.Sweep.to_table ~param_name:"n"
       (Analysis.Sweep.snapshot_steps ~ns:[ 2; 3; 4; 5; 6; 8; 10; 12 ] ()));
  print_endline "\nsolo executions (obstruction-free fast path):";
  print_string
    (Analysis.Sweep.to_table ~param_name:"n"
       (Analysis.Sweep.snapshot_steps ~sched:Analysis.Sweep.Solo
          ~ns:[ 2; 4; 8; 12 ] ()))

(* C1: exhaustive model check *)

let claim_c1 () =
  header "C1: model-checking the snapshot algorithm (TLC claim)";
  (match Core.verify_snapshot_model ~n:2 () with
  | Ok s ->
      Printf.printf
        "n=2: VERIFIED over %d wirings; %d states, %d transitions, %d \
         terminal states; wait-free: %b\n"
        s.Modelcheck.Explorer.wirings_checked s.Modelcheck.Explorer.total_states
        s.Modelcheck.Explorer.total_transitions s.Modelcheck.Explorer.terminal_states
        s.Modelcheck.Explorer.all_wait_free
  | Error e -> Printf.printf "n=2 FAILED: %s\n" e);
  (* group inputs at n=2: both processors in one group *)
  (match Core.verify_snapshot_model ~n:2 ~inputs:(Some [| 1; 1 |]) () with
  | Ok s ->
      Printf.printf "n=2 (one group, inputs 1,1): VERIFIED; %d states\n"
        s.Modelcheck.Explorer.total_states
  | Error e -> Printf.printf "n=2 groups FAILED: %s\n" e);
  (* n=3 uses the bit-packed specialized checker (Modelcheck.Snapshot3):
     a single wiring's space is ~10^8 states.  First cross-validate its
     packed semantics against the reference implementation. *)
  let compared = Modelcheck.Snapshot3.selfcheck ~runs:50 () in
  Printf.printf
    "n=3 packed checker cross-validated against the reference semantics on \
     %d random steps\n"
    compared;
  let wirings = Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true in
  let wirings =
    if full then wirings
    else
      (* default: one maximally-anonymous rotation wiring (~10^8 states,
         a few minutes); --full sweeps all 36 *)
      [ Anonmem.Wiring.of_lists [ [ 0; 1; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ] ] ]
  in
  Printf.printf "n=3: checking %d wiring(s)%s\n%!" (List.length wirings)
    (if full then " (full sweep)" else " (pass --full for all 36)");
  List.iter
    (fun wiring ->
      let t0 = Unix.gettimeofday () in
      match Modelcheck.Snapshot3.check ~wiring ~inputs:[| 1; 2; 3 |] () with
      | Modelcheck.Snapshot3.Verified s ->
          Printf.printf
            "  wiring %s: VERIFIED (safety + wait-freedom); %d states, %d \
             transitions, %d terminal states, DFS depth %d (%.0fs)\n%!"
            (Fmt.str "%a" Anonmem.Wiring.pp wiring)
            s.Modelcheck.Snapshot3.states s.Modelcheck.Snapshot3.transitions
            s.Modelcheck.Snapshot3.terminals s.Modelcheck.Snapshot3.max_depth
            (Unix.gettimeofday () -. t0)
      | Modelcheck.Snapshot3.Cycle { processors; _ } ->
          Printf.printf "  wiring %s: WAIT-FREEDOM VIOLATED (processors %s)\n"
            (Fmt.str "%a" Anonmem.Wiring.pp wiring)
            (String.concat "," (List.map string_of_int processors))
      | Modelcheck.Snapshot3.Invariant_violation { path; _ } ->
          Printf.printf "  wiring %s: SAFETY VIOLATED (trace length %d)\n"
            (Fmt.str "%a" Anonmem.Wiring.pp wiring)
            (List.length path)
      | Modelcheck.Snapshot3.Table_full k ->
          Printf.printf "  wiring %s: table full at %d states\n"
            (Fmt.str "%a" Anonmem.Wiring.pp wiring)
            k)
    wirings

(* F5-MC: bounded model checking of consensus safety (our extension) *)

let consensus_mc () =
  header "F5-MC: bounded model checking of consensus agreement (extension)";
  List.iter
    (fun (inputs, max_ts) ->
      match Core.verify_consensus_bounded ~n:2 ~inputs:(Some inputs) ~max_ts () with
      | Ok states ->
          Printf.printf
            "  n=2 inputs (%d,%d) timestamps<=%d: agreement+validity hold \
             over all wirings/interleavings; %d states\n"
            inputs.(0) inputs.(1) max_ts states
      | Error e -> Printf.printf "  FAILED: %s\n" e)
    [ ([| 1; 2 |], 4); ([| 1; 2 |], 5); ([| 1; 1 |], 5) ];
  print_endline
    "  note: with the naive reading of the Figure-5 rule (a processor whose\n\
    \  snapshot shows no rival decides immediately) this check fails with a\n\
    \  ~60-step covering counterexample; the implemented rule counts an\n\
    \  absent rival as timestamp 0, as in Chandra's racing formulation."

(* C2: non-atomicity witness *)

let claim_c2 () =
  header "C2: the snapshot task solution is not an atomic memory snapshot";
  (match Core.find_nonatomic_execution ~n:3 ~attempts:20_000 () with
  | Some w ->
      Printf.printf
        "random-search witness (seed %d, %d steps): processor %d returned %s; \
         memory content sets over the whole execution: %s\n"
        w.Core.Snapshot_witness.witness_run.Core.Snapshot_witness.seed
        w.Core.Snapshot_witness.witness_run.Core.Snapshot_witness.steps
        (w.Core.Snapshot_witness.culprit + 1)
        (iset_str w.Core.Snapshot_witness.culprit_output)
        (String.concat " "
           (List.map iset_str w.Core.Snapshot_witness.memory_sets_seen))
  | None ->
      print_endline
        "no witness in 20k random executions (uniform sampling misses the \
         covering patterns; the exhaustive search below settles it)");
  if full then begin
    match Core.find_nonatomic_packed () with
    | Some (inputs, target, w) ->
        Printf.printf
          "exhaustive witness: with inputs (%d,%d,%d) processor %d returns \
           %s although the memory never contains exactly it\n"
          inputs.(0) inputs.(1) inputs.(2)
          (w.Modelcheck.Snapshot3.culprit + 1)
          (iset_str target);
        Printf.printf "  wiring %s, witness execution of %d steps\n"
          (Fmt.str "%a" Anonmem.Wiring.pp w.Modelcheck.Snapshot3.wiring)
          (List.length w.Modelcheck.Snapshot3.path)
    | None ->
        print_endline
          "exhaustive pruned-reachability search over all 36 wirings refuted \
           every candidate (inputs, target) configuration — see EXPERIMENTS.md \
           for the discussion of this negative result"
  end
  else
    print_endline
      "(pass --full for the exhaustive pruned-reachability search over all \
       wirings; see `anonsim check-nonatomic --exhaustive`)"

(* LB: lower bound *)

let lower_bound () =
  header "LB: Section 2.1 - N-1 registers are not enough";
  List.iter
    (fun n ->
      let r = Core.lower_bound_demo ~n () in
      Printf.printf
        "  n=%d (m=%d): p solo-terminated with %s in %d steps; covering \
         erased p: %b; violation: %s\n"
        n (n - 1) (iset_str r.Analysis.Lower_bound.p_output)
        r.Analysis.Lower_bound.p_solo_steps
        (Analysis.Lower_bound.p_erased r)
        r.Analysis.Lower_bound.violation)
    [ 2; 3; 4; 5; 6 ]

(* F4: renaming *)

let fig4 () =
  header "F4: Figure 4 - adaptive renaming with M(M+1)/2 names";
  List.iter
    (fun (n, groups) ->
      let inputs = Array.init n (fun i -> 1 + (i mod groups)) in
      let bound = Algorithms.Renaming.max_name ~groups in
      let collisions_same = ref 0 and runs_ok = ref 0 and max_seen = ref 0 in
      for seed = 0 to 49 do
        match Core.solve_renaming ~seed ~inputs () with
        | Ok r ->
            incr runs_ok;
            Array.iter
              (fun (o : Algorithms.Renaming.output) ->
                max_seen := max !max_seen o.name_out)
              r.Core.outputs;
            let names =
              Array.map (fun (o : Algorithms.Renaming.output) -> o.name_out) r.Core.outputs
            in
            Array.iteri
              (fun p np ->
                Array.iteri
                  (fun q nq ->
                    if p < q && np = nq && inputs.(p) = inputs.(q) then
                      incr collisions_same)
                  names)
              names
        | Error _ -> ()
      done;
      Printf.printf
        "  n=%d, %d groups: %d/50 runs valid, names within 1..%d (max seen \
         %d); same-group name sharing occurred %d times (legal)\n"
        n groups !runs_ok bound !max_seen !collisions_same)
    [ (3, 3); (4, 2); (5, 3); (6, 3); (8, 4) ]

(* F5: consensus *)

let fig5 () =
  header "F5: Figure 5 - obstruction-free consensus";
  (* solo decision latency *)
  List.iter
    (fun n ->
      let inputs = Array.init n (fun i -> (i mod 3) + 1) in
      let steps =
        List.filter_map
          (fun seed ->
            match Core.solve_consensus ~seed ~contention_steps:0 ~inputs () with
            | Ok r -> Some r.Core.steps
            | Error _ -> None)
          (List.init 11 Fun.id)
      in
      let sorted = List.sort compare steps in
      Printf.printf "  n=%d solo-ish: %d/11 decided, median %d steps\n" n
        (List.length steps)
        (List.nth sorted (List.length sorted / 2)))
    [ 2; 3; 4; 6; 8 ];
  (* agreement under contention *)
  let violations = ref 0 and decided_runs = ref 0 in
  for seed = 0 to 199 do
    let n = 2 + (seed mod 5) in
    let inputs = Array.init n (fun i -> (i mod 2) + 1) in
    match Core.solve_consensus ~seed ~contention_steps:2_000 ~inputs () with
    | Ok _ -> incr decided_runs
    | Error _ -> incr violations
  done;
  Printf.printf
    "  contention: %d/200 runs decided with agreement+validity, %d stalled \
     or invalid\n"
    !decided_runs !violations

(* X1: scheduler sensitivity *)

let x1 () =
  header "X1: scheduler sensitivity of the snapshot algorithm";
  List.iter
    (fun n ->
      let rows = Analysis.Sweep.scheduler_sensitivity ~n () in
      List.iter
        (fun (name, stats) ->
          Fmt.pr "  n=%d %-12s %a@." n name Repro_util.Stats.pp_summary stats)
        rows)
    [ 2; 4; 6; 8 ]

(* X4: the covering phenomenon, quantified *)

let x4 () =
  header "X4: covering - overwrites and lost writes in the write-scan loop";
  let module Trace = Anonmem.Trace.Make (Algorithms.Write_scan) in
  let module Sys = Trace.Sys in
  List.iter
    (fun n ->
      let rng = Repro_util.Rng.create ~seed:23 in
      let cfg = Algorithms.Write_scan.cfg ~n ~m:n in
      let wiring = Anonmem.Wiring.random rng ~n ~m:n in
      let st =
        Sys.init ~cfg ~wiring ~inputs:(Array.init n (fun i -> i + 1))
      in
      let tr = Trace.create () in
      let _ =
        Sys.run ~max_steps:5_000
          ~sched:(Anonmem.Scheduler.random (Repro_util.Rng.split rng))
          ~on_event:(Trace.on_event tr) st
      in
      let c = Trace.covering tr in
      Printf.printf
        "  n=%d: %d writes, %d overwrites (%.0f%%), %d lost outright (%.0f%%)\n"
        n c.Trace.writes c.Trace.overwrites
        (100. *. float_of_int c.Trace.overwrites /. float_of_int (max 1 c.Trace.writes))
        c.Trace.lost_writes
        (100. *. float_of_int c.Trace.lost_writes /. float_of_int (max 1 c.Trace.writes)))
    [ 2; 3; 5; 8 ]

(* X2: multicore *)

let x2 () =
  header "X2: snapshot on real OCaml 5 domains";
  List.iter
    (fun n ->
      let inputs = Array.init n (fun i -> i + 1) in
      let ok = ref 0 and ops = ref 0 in
      for seed = 0 to 19 do
        match Runtime_shm.parallel_snapshot ~seed ~inputs () with
        | Ok r ->
            incr ok;
            ops := !ops + Array.fold_left ( + ) 0 r.Runtime_shm.Snapshot_run.steps
        | Error _ -> ()
      done;
      Printf.printf
        "  n=%d domains: %d/20 runs valid, avg %d shared-memory ops per run\n"
        n !ok
        (if !ok > 0 then !ops / !ok else 0))
    [ 2; 4; 6; 8 ]

(* X3: baselines *)

let x3 () =
  header "X3: baselines";
  (* named-memory snapshot: works with identity wiring, breaks when the
     memory is anonymous *)
  let module NSys = Anonmem.System.Make (Algorithms.Named_snapshot) in
  let n = 4 in
  let cfg = Algorithms.Named_snapshot.cfg ~n in
  let inputs = Array.init n (fun i -> i + 1) in
  let run_with wiring =
    let state = NSys.init ~cfg ~wiring ~inputs in
    (* all announcement writes first, then collects: the adversarial order
       for anonymous memory *)
    let sched = Anonmem.Scheduler.round_robin () in
    let stop, _ = NSys.run ~max_steps:100_000 ~sched state in
    if stop <> NSys.All_halted then Error "did not terminate"
    else
      let complete =
        Array.for_all
          (function
            | Some o -> Repro_util.Iset.cardinal o = n
            | None -> false)
          (NSys.outputs state)
      in
      Ok complete
  in
  (match run_with (Anonmem.Wiring.identity ~n ~m:n) with
  | Ok complete ->
      Printf.printf
        "  named-memory double collect, identity wiring: terminates, all \
         outputs complete (%b)\n"
        complete
  | Error e -> Printf.printf "  named baseline failed: %s\n" e);
  let rng = Repro_util.Rng.create ~seed:4 in
  let incomplete = ref 0 in
  let trials = 50 in
  for _ = 1 to trials do
    match run_with (Anonmem.Wiring.random rng ~n ~m:n) with
    | Ok complete -> if not complete then incr incomplete
    | Error _ -> incr incomplete
  done;
  Printf.printf
    "  same algorithm, anonymous (random) wirings: %d/%d runs lost a \
     participant's write (completeness violated)\n"
    !incomplete trials;
  (* double-collect termination rule: fooled by the Figure-2 adversary *)
  let module E = Analysis.Figure2.Write_scan_ext in
  let cfg = Algorithms.Write_scan.cfg ~n:5 ~m:3 in
  let r = E.run ~cfg ~cycles:30 () in
  let s3 = E.scan_summary r.E.extra_events.(3)
  and s4 = E.scan_summary r.E.extra_events.(4) in
  Printf.printf
    "  double-collect rule under the Figure-2 adversary: p had %d clean \
     scans in a row ending with view {1,2}, p' %d with {1,3} - both fooled, \
     outputs incomparable\n"
    s3.E.final_clean_streak s4.E.final_clean_streak

(* X5: fault tolerance - which algorithms survive which fault classes *)

let x5 () =
  header "X5: fault-tolerance matrix (seeded fuzz campaigns per fault class)";
  let iterations = if full then 10_000 else 2_000 in
  Printf.printf
    "%d cases per cell, seed 0; a VIOLATION cell reports the shrunk \
     counterexample's failure\n"
    iterations;
  let profiles =
    [
      Fuzzing.Fault_gen.Crash_stop_only;
      Fuzzing.Fault_gen.Crash_recover;
      Fuzzing.Fault_gen.Omission;
      Fuzzing.Fault_gen.Stale;
      Fuzzing.Fault_gen.Stuck;
      Fuzzing.Fault_gen.Mixed;
    ]
  in
  List.iter
    (fun key ->
      match Fuzzing.Targets.find key with
      | None -> ()
      | Some (module T : Fuzzing.Target.S) ->
          let module H = Fuzzing.Harness.Make (T) in
          List.iter
            (fun profile ->
              let r =
                H.campaign ~now:Unix.gettimeofday ~fault_profile:profile
                  ~seed:0 ~iterations ()
              in
              match r.Fuzzing.Harness.counterexample with
              | None ->
                  Printf.printf "  %-10s %-9s clean over %d cases (%.1fs)\n%!"
                    key
                    (Fuzzing.Fault_gen.name profile)
                    r.Fuzzing.Harness.iterations r.Fuzzing.Harness.elapsed
              | Some cex ->
                  let inst = cex.Fuzzing.Harness.instance in
                  (* A counterexample is fault-induced iff removing the
                     (already shrunk-to-minimal) fault plan makes the same
                     scripted execution pass. *)
                  let fault_induced =
                    inst.Fuzzing.Harness.faults <> []
                    && Result.is_ok
                         (H.verdict_of_instance
                            { inst with Fuzzing.Harness.faults = [] })
                  in
                  Printf.printf
                    "  %-10s %-9s VIOLATION at iteration %d: %s\n\
                    \             plan [%s], fault-induced: %b (%d shrink runs)\n\
                     %!"
                    key
                    (Fuzzing.Fault_gen.name profile)
                    (match r.Fuzzing.Harness.found_after with
                    | Some (i, _) -> i
                    | None -> -1)
                    (Fmt.str "%a" Tasks.Task_failure.pp
                       cex.Fuzzing.Harness.failure)
                    (Anonmem.Fault.to_string inst.Fuzzing.Harness.faults)
                    fault_induced cex.Fuzzing.Harness.shrink_runs)
            profiles)
    [ "snapshot"; "renaming"; "consensus" ];
  (* The time-abstract crash search subsumes every timed crash-stop plan at
     the same sizes: a safety certificate here covers the whole first row. *)
  List.iter
    (fun max_crashes ->
      if max_crashes = 1 || full then
        match Core.verify_snapshot_model_crashes ~n:2 ~max_crashes () with
        | Ok s ->
            Printf.printf
              "  model check: snapshot containment safety VERIFIED for n=2 \
               under <=%d crash-stop(s) (%d wirings, %d states, %d crash \
               branches)\n"
              max_crashes s.Core.Snapshot_fault_mc.wirings_checked
              s.Core.Snapshot_fault_mc.total_states
              s.Core.Snapshot_fault_mc.total_crash_branches
        | Error e ->
            Printf.printf "  model check under <=%d crash(es) FAILED: %s\n"
              max_crashes e)
    [ 1; 2 ]

(* X6/X7/X12: scaling rows.  Figure 3 on the identity wiring with a
   single input class, whose automorphism group is the whole symmetric
   group. *)

module Snap_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Snapshot)

let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

(* Peak resident set of this process in MiB (VmHWM), 0 off Linux. *)
let vm_hwm_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
        | exception End_of_file -> 0
      in
      let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
      float_of_int kb /. 1024.

let timed f =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let print_counts ~label ~engine ~reduction ~states ~transitions ~wall =
  Printf.printf "  %-14s %-12s %-9s %9d states %9d transitions %8.2fs" label
    engine
    (if reduction then "reduced" else "unreduced")
    states transitions wall

(* An exact BFS row; returns (states, transitions).  Retained MiB is the
   exact heap reachable from the explored space. *)
let exact_row ?stop_expansion ~label ~reduction ~cfg ~wiring ~inputs () =
  let space, wall =
    timed (fun () ->
        match
          Snap_mc.explore ?stop_expansion ~reduction ~cfg ~wiring ~inputs ()
        with
        | Snap_mc.Explored sp -> sp
        | _ -> failwith (label ^ ": exact exploration did not complete"))
  in
  let states = Snap_mc.state_count space
  and transitions = Snap_mc.transition_count space in
  print_counts ~label ~engine:"exact" ~reduction ~states ~transitions ~wall;
  Printf.printf ", %.1f MiB retained\n%!"
    (mib_of_words (Obj.reachable_words (Obj.repr space)));
  (states, transitions)

(* A fingerprint BFS row at [ram_mib]; returns (states, transitions). *)
let fp_row ?stop_expansion ?(hwm = false) ~label ~reduction ~ram_mib ~cfg
    ~wiring ~inputs () =
  let st, wall =
    timed (fun () ->
        match
          Snap_mc.explore_fp ?stop_expansion ~reduction
            ~ram_budget_bytes:(ram_mib * 1024 * 1024)
            ~cfg ~wiring ~inputs ()
        with
        | Snap_mc.Fp_explored st -> st
        | _ -> failwith (label ^ ": fingerprint exploration did not complete"))
  in
  print_counts ~label
    ~engine:(Printf.sprintf "fp %d MiB" ram_mib)
    ~reduction ~states:st.Snap_mc.fp_states
    ~transitions:st.Snap_mc.fp_transitions ~wall;
  Printf.printf ", %d runs, %.1f MiB spilled, omission bound %.3g%s\n%!"
    st.Snap_mc.fp_runs
    (float_of_int st.Snap_mc.fp_bytes_spilled /. 1048576.)
    st.Snap_mc.fp_bound
    (if hwm then Printf.sprintf ", VmHWM %.1f MiB" (vm_hwm_mib ()) else "");
  (st.Snap_mc.fp_states, st.Snap_mc.fp_transitions)

(* A fingerprint row must reproduce its exact twin's counts. *)
let check_parity ~label ~fp ~exact =
  if fp <> exact then begin
    Printf.printf "  %s: fingerprint counts (%d, %d) differ from exact (%d, %d)\n%!"
      label (fst fp) (snd fp) (fst exact) (snd exact);
    exit 1
  end

(* n=4 bounded quotient: expansion stops once two processors have
   completed a scan, a symmetric predicate, so the reduced run explores
   the true quotient of the bounded space (|G| = 24). *)
let n4_cfg = Algorithms.Snapshot.standard ~n:4
let n4_wiring = Anonmem.Wiring.identity ~n:4 ~m:4
let n4_inputs = [| 1; 1; 1; 1 |]

let two_scans (st : Snap_mc.state) =
  Array.fold_left
    (fun c l -> if Algorithms.Snapshot.level_of_local l >= 1 then c + 1 else c)
    0 st.Snap_mc.locals
  >= 2

(* Runs first in --full mode: VmHWM is process-wide and monotone, so the
   reading is this row's own only while nothing larger has run. *)
let scaling_n4_fp () =
  header "X12: n=4 bounded quotient, fingerprint row (runs first for VmHWM)";
  fp_row ~stop_expansion:two_scans ~hwm:true ~label:"n=4 bounded"
    ~reduction:true ~ram_mib:128 ~cfg:n4_cfg ~wiring:n4_wiring
    ~inputs:n4_inputs ()

let scaling ?n4_fp () =
  header "X6/X7/X12: scaling rows";
  let cfg = Algorithms.Snapshot.standard ~n:3 in
  let wiring = Anonmem.Wiring.identity ~n:3 ~m:3 in
  let inputs = [| 1; 1; 1 |] in
  let label = "n=3 identity" in
  let full_counts = exact_row ~label ~reduction:false ~cfg ~wiring ~inputs () in
  let red_counts = exact_row ~label ~reduction:true ~cfg ~wiring ~inputs () in
  let fp = fp_row ~label ~reduction:false ~ram_mib:4 ~cfg ~wiring ~inputs () in
  check_parity ~label ~fp ~exact:full_counts;
  Printf.printf "  symmetry reduction: %d / %d = %.2fx fewer states\n"
    (fst full_counts) (fst red_counts)
    (float_of_int (fst full_counts) /. float_of_int (fst red_counts));
  match n4_fp with
  | None -> print_endline "  (pass --full for the n=4 bounded quotient)"
  | Some fp ->
      let label = "n=4 bounded" in
      let exact =
        exact_row ~stop_expansion:two_scans ~label ~reduction:true ~cfg:n4_cfg
          ~wiring:n4_wiring ~inputs:n4_inputs ()
      in
      check_parity ~label ~fp ~exact

let () =
  Printf.printf
    "Reproduction report: Losa & Gafni, PODC 2024 (fully-anonymous model)\n";
  Printf.printf "mode: %s\n" (if full then "full" else "default (pass --full for the complete n=3 sweep)");
  let n4_fp = if full then Some (scaling_n4_fp ()) else None in
  figure2 ();
  theorem48 ();
  fig3 ();
  claim_c1 ();
  consensus_mc ();
  claim_c2 ();
  lower_bound ();
  fig4 ();
  fig5 ();
  x1 ();
  x2 ();
  x3 ();
  x4 ();
  x5 ();
  scaling ?n4_fp ();
  print_endline "\ndone."
