(* anonsim: command-line driver for the fully-anonymous shared-memory
   library.  Each subcommand regenerates one of the paper's artifacts or
   runs one of the algorithms; see DESIGN.md for the experiment index. *)

open Cmdliner

let iset_str = Repro_util.Iset.to_string

(* Exit-code contract of the verification subcommands (documented in
   README): 0 = clean verdict, 2 = violation or contradicted map,
   3 = resource budget exhausted (partial result + resumable state on
   disk), 4 = interrupted by SIGINT/SIGTERM (journal/checkpoint flushed,
   resume instructions printed), 5 = checkpoint or journal unusable
   (torn, corrupt, or written under another format version; restart
   without --resume).  1 is left to cmdliner/uncaught errors. *)
let exit_violation = 2
let exit_exhausted = 3
let exit_interrupted = 4
let exit_unusable = 5

(* A budget trip's exit code: 4 when a signal stopped the run, else 3. *)
let exit_tripped reason =
  Stdlib.exit
    (match reason with
    | Modelcheck.Governor.Interrupted -> exit_interrupted
    | _ -> exit_exhausted)

(* A finished run retires its checkpoint, with the spill runs beside it:
   resuming a finished run must start over, not replay a stale position. *)
let retire_checkpoint = Option.iter Modelcheck.Checkpoint.retire

(* Run a verification command, turning a checkpoint the engines refuse
   into exit 5 with the loader's message instead of an uncaught
   exception. *)
let refusing_unusable f =
  try f ()
  with Modelcheck.Checkpoint.Corrupt_checkpoint msg ->
    Printf.eprintf
      "anonsim: %s\ncheckpoint or journal unusable; restart without --resume\n%!"
      msg;
    Stdlib.exit exit_unusable

(* One shared flag: the per-cell governors of a sweep all watch it, so a
   single SIGINT stops the whole run at the next engine tick.  A second
   signal aborts immediately (escape hatch for a wedged run). *)
let interrupted = Atomic.make false

let install_signal_handlers () =
  let handle _ =
    if Atomic.exchange interrupted true then Stdlib.exit exit_interrupted
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle handle))
    [ Sys.sigint; Sys.sigterm ]

(* Durable writes for result artifacts: never leave a half-written JSON
   where a consumer (or a resumed run) will read it. *)
let write_file_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

(* Shared options *)

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let inputs_arg ~default =
  Arg.(
    value
    & opt (list int) default
    & info [ "i"; "inputs" ] ~docv:"INPUTS"
        ~doc:"Comma-separated processor inputs (group identifiers).")

let n_arg ~default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Number of processors.")

(* simulate: run an algorithm to completion and print validated outputs *)

let simulate_cmd =
  let algo_arg =
    Arg.(
      value
      & opt (enum [ ("snapshot", `Snapshot); ("renaming", `Renaming); ("consensus", `Consensus) ]) `Snapshot
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:"Algorithm to run: $(b,snapshot), $(b,renaming) or $(b,consensus).")
  in
  let run algo seed inputs =
    let inputs = Array.of_list inputs in
    let report name steps pp_out outputs =
      Printf.printf "%s solved in %d shared-memory steps\n" name steps;
      Array.iteri
        (fun p o -> Printf.printf "  p%d: %s\n" (p + 1) (pp_out o))
        outputs;
      `Ok ()
    in
    match algo with
    | `Snapshot -> (
        match Core.solve_snapshot ~seed ~inputs () with
        | Ok r -> report "snapshot" r.Core.steps iset_str r.Core.outputs
        | Error e -> `Error (false, e))
    | `Renaming -> (
        match Core.solve_renaming ~seed ~inputs () with
        | Ok r ->
            report "renaming" r.Core.steps
              (fun (o : Algorithms.Renaming.output) ->
                Printf.sprintf "name %d (snapshot %s)" o.name_out
                  (iset_str o.snapshot))
              r.Core.outputs
        | Error e -> `Error (false, e))
    | `Consensus -> (
        match Core.solve_consensus ~seed ~inputs () with
        | Ok r -> report "consensus" r.Core.steps string_of_int r.Core.outputs
        | Error e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run an algorithm of the paper to completion.")
    Term.(ret (const run $ algo_arg $ seed_arg $ inputs_arg ~default:[ 1; 2; 3; 4 ]))

(* figure2 *)

let figure2_cmd =
  let actions_arg =
    Arg.(
      value & opt int 13
      & info [ "actions" ] ~docv:"K" ~doc:"Number of action rows to generate.")
  in
  let run actions =
    print_string (Core.figure2_table ~actions ());
    if actions >= 13 then
      print_endline "\n(steps 5-13 repeat forever after step 13)"
  in
  Cmd.v
    (Cmd.info "figure2"
       ~doc:"Regenerate the pathological execution of Figure 2.")
    Term.(const run $ actions_arg)

(* stable-views *)

let stable_views_cmd =
  let m_arg =
    Arg.(value & opt int 3 & info [ "m" ] ~docv:"M" ~doc:"Number of registers.")
  in
  let run seed n m =
    let inputs = Array.init n (fun i -> i + 1) in
    match Core.stable_view_analysis ~seed ~n ~m ~inputs () with
    | Error e -> `Error (false, e)
    | Ok r ->
        Printf.printf
          "views stabilized after %d steps (run of %d steps); stable views:\n"
          r.Analysis.Stable_views.stabilized_at r.Analysis.Stable_views.total_steps;
        List.iter
          (fun (p, v) -> Printf.printf "  p%d: %s\n" (p + 1) (iset_str v))
          r.Analysis.Stable_views.stable_views;
        let g = r.Analysis.Stable_views.graph in
        Fmt.pr "stable-view graph:@,%a@." Analysis.View_graph.pp g;
        Printf.printf "Theorem 4.8 (DAG with unique source): %b\n"
          (Analysis.View_graph.satisfies_theorem_4_8 g);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "stable-views"
       ~doc:
         "Run the write-scan loop to stabilization and analyse the \
          stable-view graph (Theorem 4.8).")
    Term.(ret (const run $ seed_arg $ n_arg ~default:5 $ m_arg))

(* lower-bound *)

let lower_bound_cmd =
  let run n =
    let r = Core.lower_bound_demo ~n () in
    Fmt.pr "%a@." Analysis.Lower_bound.pp r;
    Printf.printf "p's information erased from memory: %b\n"
      (Analysis.Lower_bound.p_erased r)
  in
  Cmd.v
    (Cmd.info "lower-bound"
       ~doc:
         "Materialize the Section-2.1 covering execution: N processors, N-1 \
          registers, coordination impossible.")
    Term.(const run $ n_arg ~default:4)

(* check-snapshot: the TLC claim *)

let check_snapshot_cmd =
  let fingerprint_arg =
    Arg.(
      value & flag
      & info [ "fingerprint" ]
          ~doc:
            "Use the hash-compacted fingerprint engine: visited states are \
             64-bit fingerprints in a RAM tier capped by $(b,--fp-ram-mb), \
             spilling sorted runs to disk past the budget.  Safety-only \
             (wait-freedom is not decided) and lossy with a quantified \
             error: the summary reports the birthday omission bound \
             (states^2 / 2^64).  Supports $(b,--checkpoint), $(b,--resume) \
             and $(b,--max-seconds).")
  in
  let fp_ram_mb_arg =
    Arg.(
      value & opt int 64
      & info [ "fp-ram-mb" ] ~docv:"MB"
          ~doc:
            "RAM budget (MiB) for the fingerprint engine's in-memory tier; \
             past 3/4 load the tier spills to sorted on-disk runs.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint exploration state to $(docv) periodically \
             (atomically), so an interrupted or budget-exhausted run can \
             continue with $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restart from the $(b,--checkpoint) file if it exists (a \
             missing file just runs fresh).")
  in
  let max_seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget; on expiry the run writes a final \
             checkpoint (with $(b,--checkpoint)) and exits with code 3.")
  in
  let run n fingerprint fp_ram_mb checkpoint resume max_seconds =
    refusing_unusable @@ fun () ->
    let max_fp_ram_mb =
      Modelcheck.Fingerprint_set.max_ram_budget_bytes / (1024 * 1024)
    in
    if fp_ram_mb < 1 then `Error (true, "--fp-ram-mb must be at least 1")
    else if fp_ram_mb > max_fp_ram_mb then
      `Error
        (true, Printf.sprintf "--fp-ram-mb must be at most %d" max_fp_ram_mb)
    else begin
    install_signal_handlers ();
    let governor =
      Modelcheck.Governor.create ?wall_seconds:max_seconds
        ~interrupted_flag:interrupted ()
    in
    let ckpt =
      Option.map
        (fun path -> { Modelcheck.Checkpoint.path; every_states = 100_000 })
        checkpoint
    in
    (* The resume command must reproduce every flag baked into the
       checkpoint's context fingerprint — a mismatched engine is refused
       on load. *)
    let resume_hint f =
      Printf.printf
        "resume with: anonsim check-snapshot -n %d%s --checkpoint %s \
         --resume\n"
        n
        (if fingerprint then
           Printf.sprintf " --fingerprint --fp-ram-mb %d" fp_ram_mb
         else "")
        f
    in
    let finish_durably e =
      (* The sweep returns a plain [Error] for budget trips too; the
         governor's sticky verdict tells the two apart from a genuine
         violation.  A trip's error already names its reason
         ("exhausted (interrupted) at K states"). *)
      match Modelcheck.Governor.tripped governor with
      | Some reason ->
          print_endline e;
          Option.iter resume_hint checkpoint;
          exit_tripped reason
      | None ->
          prerr_endline e;
          Stdlib.exit exit_violation
    in
    let verified report =
      retire_checkpoint checkpoint;
      print_string report;
      `Ok ()
    in
    if fingerprint then (
      match
        Core.verify_snapshot_model_fp ~n
          ~ram_budget_bytes:(fp_ram_mb * 1024 * 1024)
          ~governor ?ckpt ~resume ()
      with
      | Error e -> finish_durably e
      | Ok s ->
          verified
            (Printf.sprintf
               "verified (fingerprint engine): containment safety holds \
                for n=%d\n\
                wirings: %d, states: %d (largest space %d), transitions: \
                %d, terminal states: %d\n\
                omission bound: %.3g (birthday, states^2 / 2^64); spilled \
                runs: %d (%d bytes)\n\
                note: safety only — the fingerprint engine stores no \
                edges, so wait-freedom is not decided\n"
               n s.Modelcheck.Explorer.fp_wirings
               s.Modelcheck.Explorer.fp_total_states
               s.Modelcheck.Explorer.fp_max_space_states
               s.Modelcheck.Explorer.fp_total_transitions
               s.Modelcheck.Explorer.fp_terminal_states
               s.Modelcheck.Explorer.fp_omission_bound
               s.Modelcheck.Explorer.fp_spilled_runs
               s.Modelcheck.Explorer.fp_spill_bytes))
    else (
      match Core.verify_snapshot_model ~n ~governor ?ckpt ~resume () with
      | Error e -> finish_durably e
      | Ok s ->
          verified
            (Printf.sprintf
               "verified: snapshot algorithm correct and wait-free for \
                n=%d\n\
                wirings: %d, states: %d (largest space %d), transitions: \
                %d, terminal states: %d\n"
               n s.Modelcheck.Explorer.wirings_checked
               s.Modelcheck.Explorer.total_states
               s.Modelcheck.Explorer.max_space_states
               s.Modelcheck.Explorer.total_transitions
               s.Modelcheck.Explorer.terminal_states))
    end
  in
  Cmd.v
    (Cmd.info "check-snapshot"
       ~doc:
         "Exhaustively model-check the Figure-3 snapshot algorithm \
          (containment safety + wait-freedom) over all wirings — the \
          paper's TLC claim.  The verdict covers crash-stops too: a \
          crash-stopped processor is one that is never scheduled again.  \
          $(b,--fingerprint) switches to the RAM-bounded \
          hash-compaction engine (safety only, quantified omission bound).  \
          $(b,--checkpoint), \
          $(b,--resume) and $(b,--max-seconds) make the run durable: \
          exploration state is snapshotted atomically and an interrupted \
          (exit 4) or budget-exhausted (exit 3) run continues exactly \
          where it stopped.")
    Term.(
      ret
        (const run $ n_arg ~default:2 $ fingerprint_arg
       $ fp_ram_mb_arg $ checkpoint_arg $ resume_arg $ max_seconds_arg))

(* check-nonatomic: the Section-8 claim *)

let check_nonatomic_cmd =
  let attempts_arg =
    Arg.(
      value & opt int 20_000
      & info [ "attempts" ] ~docv:"K" ~doc:"Number of random executions to try.")
  in
  let exhaustive_arg =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Settle the claim by pruned-reachability search over all wirings \
             (3 processors only, cyclic write order) on the exact DFS, \
             about 5x10^8 states over the four candidates.  A \
             snapshot-invariant or wait-freedom violation exits 2; SIGINT \
             stops the search (exit 4).")
  in
  let run n attempts exhaustive =
    if exhaustive && n <> 3 then
      `Error (true, "--exhaustive searches 3 processors only; pass -n 3")
    else if exhaustive then begin
      install_signal_handlers ();
      let governor =
        Modelcheck.Governor.create ~interrupted_flag:interrupted ()
      in
      Core.find_nonatomic ~governor ~write_order:Cyclic ()
      |> Seq.iter (fun ((_, _, outcome) as o) ->
             print_endline (Core.nonatomic_line o);
             match outcome with
             | Core.Exhausted { reason; _ } -> exit_tripped reason
             | Unsafe _ -> Stdlib.exit exit_violation
             | Nonatomic _ | Refuted _ -> ());
      `Ok ()
    end
    else
      match Core.find_nonatomic_execution ~n ~attempts () with
      | Some w ->
          Printf.printf
            "witness found (seed %d): processor %d returned %s,\n"
            w.Core.Snapshot_witness.witness_run.Core.Snapshot_witness.seed
            (w.Core.Snapshot_witness.culprit + 1)
            (iset_str w.Core.Snapshot_witness.culprit_output);
          Printf.printf "but the memory only ever contained: %s\n"
            (String.concat " "
               (List.map iset_str w.Core.Snapshot_witness.memory_sets_seen));
          Printf.printf
            "=> the algorithm solves the snapshot task but not atomic memory \
             snapshots.\n";
          `Ok ()
      | None ->
          `Error
            ( false,
              "no witness found by sampling (the covering patterns are rare); \
               run with --exhaustive to settle the claim" )
  in
  Cmd.v
    (Cmd.info "check-nonatomic"
       ~doc:
         "Search for the Section-8 witness that the snapshot algorithm does \
          not provide atomic memory snapshots.")
    Term.(ret (const run $ n_arg ~default:3 $ attempts_arg $ exhaustive_arg))

(* check-consensus: bounded model checking of agreement (extension) *)

let check_consensus_cmd =
  let max_ts_arg =
    Arg.(
      value & opt int 4
      & info [ "max-ts" ] ~docv:"T" ~doc:"Timestamp bound for the exploration.")
  in
  let run n max_ts =
    match Core.verify_consensus_bounded ~n ~max_ts () with
    | Ok states ->
        Printf.printf
          "verified: agreement and validity hold for n=%d over all wirings \
           and interleavings with timestamps <= %d (%d states)\n"
          n max_ts states;
        `Ok ()
    | Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "check-consensus"
       ~doc:
         "Bounded model checking of the Figure-5 consensus algorithm's \
          safety (timestamps capped).")
    Term.(ret (const run $ n_arg ~default:2 $ max_ts_arg))

(* covering: quantify the overwrite phenomenon *)

let covering_cmd =
  let steps_arg =
    Arg.(
      value & opt int 3_000
      & info [ "steps" ] ~docv:"K" ~doc:"Number of steps to run.")
  in
  let run seed n steps =
    let module Trace = Anonmem.Trace.Make (Algorithms.Write_scan) in
    let module Sys = Trace.Sys in
    let rng = Repro_util.Rng.create ~seed in
    let cfg = Algorithms.Write_scan.cfg ~n ~m:n in
    let wiring = Anonmem.Wiring.random rng ~n ~m:n in
    let inputs = Array.init n (fun i -> i + 1) in
    let st = Sys.init ~cfg ~wiring ~inputs in
    let tr = Trace.create () in
    let _ =
      Sys.run ~max_steps:steps
        ~sched:(Anonmem.Scheduler.random (Repro_util.Rng.split rng))
        ~on_event:(Trace.on_event tr) st
    in
    let c = Trace.covering tr in
    Printf.printf
      "write-scan loop, %d processors, %d registers, %d steps (seed %d):\n" n n
      steps seed;
    Fmt.pr "  %a@." Trace.pp_covering c;
    Printf.printf "  overwrite rate: %.1f%%, lost-write rate: %.1f%%\n"
      (100. *. float_of_int c.Trace.overwrites /. float_of_int (max 1 c.Trace.writes))
      (100. *. float_of_int c.Trace.lost_writes /. float_of_int (max 1 c.Trace.writes))
  in
  Cmd.v
    (Cmd.info "covering"
       ~doc:
         "Quantify the covering phenomenon: overwrites and lost writes in \
          the write-scan loop.")
    Term.(const run $ seed_arg $ n_arg ~default:5 $ steps_arg)

(* faults: one execution under an explicit fault plan *)

let faults_cmd =
  let protocol_arg =
    Arg.(
      value
      & opt string "snapshot"
      & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
          ~doc:
            (Printf.sprintf "Protocol to run: one of %s."
               (String.concat ", " Fuzzing.Targets.keys)))
  in
  let plan_arg =
    Arg.(
      value & opt string ""
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan to inject: ';'-separated events like \
             'crash:p2\\@10', 'recover:p3\\@8', 'omit:p1\\@4', \
             'stale:p1\\@6', 'stuck:r2\\@0' (1-based processors/registers, \
             0-based global step times).  Empty plan = fault-free run.")
  in
  let m_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "m" ] ~docv:"M"
          ~doc:"Number of registers (default: the standard m = n).")
  in
  let max_steps_arg =
    Arg.(
      value & opt int 2_000
      & info [ "max-steps" ] ~docv:"K" ~doc:"Global step budget of the run.")
  in
  let run key seed inputs m plan max_steps =
    match Fuzzing.Targets.find key with
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown protocol %S (try one of %s)" key
              (String.concat ", " Fuzzing.Targets.keys) )
    | Some (module T : Fuzzing.Target.S) -> (
        let module H = Fuzzing.Harness.Make (T) in
        match Anonmem.Fault.of_string plan with
        | exception Invalid_argument msg -> `Error (false, msg)
        | faults ->
            let inputs = Array.of_list inputs in
            let n = Array.length inputs in
            let m = match m with Some m -> m | None -> n in
            let rng = Repro_util.Rng.create ~seed in
            let wiring = Anonmem.Wiring.random rng ~n ~m in
            let cfg = T.cfg ~n ~m in
            let run =
              H.exec ~record:true ~cfg ~wiring ~inputs
                ~sched:(Anonmem.Scheduler.random (Repro_util.Rng.split rng))
                ~faults ~max_steps ()
            in
            Fmt.pr "%s under plan [%a]: seed %d, n=%d m=%d, wiring %a@." key
              Anonmem.Fault.pp faults seed n m Anonmem.Wiring.pp wiring;
            Fmt.pr "%a@." Repro_util.Text_table.pp (H.Tr.to_table cfg run.trace);
            Array.iteri
              (fun p steps ->
                Printf.printf "  p%d: %s after %d steps\n" (p + 1)
                  (if Option.is_some run.H.outputs.(p) then "halted"
                   else "still running")
                  steps)
              run.H.step_counts;
            (match H.verdict ~n ~m ~inputs run with
            | Ok () -> Fmt.pr "verdict: no violation@."
            | Error f -> Fmt.pr "verdict: %a@." Tasks.Task_failure.pp f);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run one randomly scheduled execution with an explicit fault plan \
          injected, print the merged step/fault trace and judge the outcome \
          with the protocol's task oracle.")
    Term.(
      ret
        (const run $ protocol_arg $ seed_arg
       $ inputs_arg ~default:[ 1; 2; 3 ]
       $ m_arg $ plan_arg $ max_steps_arg))

(* parallel *)

let parallel_cmd =
  let run seed inputs =
    let inputs = Array.of_list inputs in
    match Runtime_shm.parallel_snapshot ~seed ~inputs () with
    | Ok r ->
        Printf.printf "parallel snapshot on %d domains:\n" (Array.length inputs);
        Array.iteri
          (fun p -> function
            | Some o ->
                Printf.printf "  domain %d: %s (%d ops)\n" (p + 1) (iset_str o)
                  r.Runtime_shm.Snapshot_run.steps.(p)
            | None -> ())
          r.Runtime_shm.Snapshot_run.outputs;
        `Ok ()
    | Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:"Run the snapshot algorithm on real OCaml 5 domains.")
    Term.(ret (const run $ seed_arg $ inputs_arg ~default:[ 1; 2; 3; 4 ]))

(* feasibility: the portfolio's empirical feasibility map *)

let feasibility_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the map as JSON to $(docv) (e.g. FEASIBILITY.json).")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Only the n=2 rows of each grid (the smoke-test budget).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append each completed cell to $(docv) (checksummed JSONL; \
             default: the $(b,--out) file plus \".journal\", or \
             FEASIBILITY.journal).  The journal is what $(b,--resume) \
             replays.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay conclusively-finished cells from the journal instead \
             of recomputing them (torn tails from a crash are healed \
             first); cells that ran out of budget are recomputed, continuing from their engine checkpoint when \
             $(b,--ckpt-dir) is set.")
  in
  let max_seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"SECS"
          ~doc:
            "Per-cell wall-clock budget; an over-budget cell is recorded \
             as $(i,unknown) (with a resumable checkpoint under \
             $(b,--ckpt-dir)) and the sweep continues.")
  in
  let max_heap_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-heap-mb" ] ~docv:"MB"
          ~doc:
            "Per-cell heap budget in megabytes (checked on the first \
             and every 4,096th engine step); over-budget cells degrade \
             to $(i,unknown) like $(b,--max-seconds).")
  in
  let ckpt_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ckpt-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for per-cell engine checkpoints (created if \
             missing).  Interrupted or over-budget cells leave a \
             checkpoint here; re-running the sweep with the same \
             $(b,--ckpt-dir) continues them mid-exploration.")
  in
  let run quick out journal resume max_seconds max_heap_mb ckpt_dir =
    refusing_unusable @@ fun () ->
    install_signal_handlers ();
    let journal_path =
      match (journal, out) with
      | Some j, _ -> j
      | None, Some f -> f ^ ".journal"
      | None, None -> "FEASIBILITY.journal"
    in
    (match ckpt_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let grids = Analysis.Feasibility.grids ~quick () in
    let floor_of, coprime_of = Analysis.Feasibility.grid_params grids in
    let jnl, recovered =
      if resume then Runtime_shm.Journal.open_append journal_path
      else (Runtime_shm.Journal.create journal_path, [])
    in
    (* Only conclusive verdicts replay from the journal: Unknown cells
       are exactly the ones a resumed run should try again (with their
       checkpoints, when available). *)
    let cached_cells =
      List.filter_map
        (Analysis.Feasibility.cell_of_record ~floor_of ~coprime_of)
        recovered
      |> List.filter (fun c ->
             Analysis.Feasibility.status_final c.Analysis.Feasibility.status)
    in
    if resume && cached_cells <> [] then
      Printf.printf "resuming: %d cell(s) replayed from %s\n%!"
        (List.length cached_cells)
        journal_path;
    let cached ~task ~n ~m =
      List.find_map
        (fun c ->
          if
            c.Analysis.Feasibility.task = task
            && c.Analysis.Feasibility.n = n
            && c.Analysis.Feasibility.m = m
          then Some c.Analysis.Feasibility.status
          else None)
        cached_cells
    in
    let heap_words =
      Option.map (fun mb -> mb * 1024 * 1024 / (Sys.word_size / 8)) max_heap_mb
    in
    let cells =
      (* Clean sweeps run over wiring classes (processor-relabelling
         quotient) — sound for these id-agnostic verdicts, and the only
         thing that keeps the 14400-wiring n=3 m=5 cells affordable. *)
      Core.feasibility_map ~quick ~wiring_classes:true ?wall_seconds:max_seconds ?heap_words
        ~interrupted_flag:interrupted ?ckpt_dir ~cached
        ~on_fresh:(fun c ->
          Runtime_shm.Journal.append jnl (Analysis.Feasibility.cell_to_record c))
        ~stop:(fun () -> Atomic.get interrupted)
        ~on_cell:(fun c ->
          Printf.printf "%-7s n=%d m=%d  expected %-12s -> %s\n%!"
            c.Analysis.Feasibility.task c.Analysis.Feasibility.n
            c.Analysis.Feasibility.m
            (Fmt.str "%a" Analysis.Feasibility.pp_expectation
               c.Analysis.Feasibility.expectation)
            (Fmt.str "%a" Analysis.Feasibility.pp_status
               c.Analysis.Feasibility.status))
        ()
    in
    Runtime_shm.Journal.close jnl;
    print_newline ();
    print_string
      (Repro_util.Text_table.render (Analysis.Feasibility.to_table cells));
    (match out with
    | Some file ->
        write_file_atomic file (Analysis.Feasibility.to_json cells);
        Printf.printf "\nwrote %s\n" file
    | None -> ());
    let unknown_cells =
      List.filter
        (fun c ->
          match c.Analysis.Feasibility.status with
          | Analysis.Feasibility.Unknown _ -> true
          | _ -> false)
        cells
    in
    let resume_hint () =
      Printf.printf "resume with: anonsim feasibility%s --journal %s%s%s \
                     --resume\n"
        (if quick then " --quick" else "")
        journal_path
        (match out with Some f -> " -o " ^ f | None -> "")
        (match ckpt_dir with Some d -> " --ckpt-dir " ^ d | None -> "")
    in
    if Atomic.get interrupted then begin
      Printf.printf "\ninterrupted: %d cell(s) journaled, %d pending\n"
        (Runtime_shm.Journal.next_seq jnl)
        (List.length
           (List.concat_map (fun g -> g.Analysis.Feasibility.g_cells) grids)
        - List.length cells);
      resume_hint ();
      Stdlib.exit exit_interrupted
    end
    else if unknown_cells <> [] then begin
      Printf.printf
        "\n%d cell(s) exhausted their budget and were marked unknown\n"
        (List.length unknown_cells);
      resume_hint ();
      Stdlib.exit exit_exhausted
    end
    else if Analysis.Feasibility.all_confirmed cells then begin
      Printf.printf
        "\nall %d cells confirmed the coprimality-threshold prediction\n"
        (List.length cells);
      `Ok ()
    end
    else begin
      prerr_endline "some cells contradicted the predicted map";
      Stdlib.exit exit_violation
    end
  in
  Cmd.v
    (Cmd.info "feasibility"
       ~doc:
         "Compute the portfolio feasibility map: exhaustively verify the \
          symmetric mutex, the desanonymization layer and the weak leader \
          protocol at each (n, m) cell and compare every verdict against \
          the coprimality-threshold prediction.  The sweep is durable: \
          every completed cell is appended to a checksummed journal, \
          SIGINT/SIGTERM stop it cleanly (exit 4), per-cell budgets \
          degrade cells to $(i,unknown) instead of killing the run (exit \
          3), and $(b,--resume) continues a previous sweep, replaying \
          finished cells and restarting interrupted ones from their \
          engine checkpoints.")
    Term.(
      ret
        (const run $ quick_arg $ out_arg $ journal_arg $ resume_arg
       $ max_seconds_arg $ max_heap_mb_arg $ ckpt_dir_arg))

(* inductive: certify the snapshot invariant by induction *)

let inductive_cmd =
  let module I = Modelcheck.Inductive in
  let clauses_arg =
    Arg.(
      value & opt string "proved"
      & info [ "clauses" ] ~docv:"CLAUSES"
          ~doc:
            "Comma-separated clause names, or the presets $(b,proved) (the \
             containment-and-coverage conjunction that passes induction) \
             and $(b,candidates) (plus the comparability strengthenings, \
             which are rejected with CTIs).")
  in
  let concrete_arg =
    Arg.(
      value & flag
      & info [ "concrete" ]
          ~doc:
            "Additionally cross-check with the concrete full-universe \
             checker on the m = n instance (n ≤ 2 only): no abstraction, \
             every wiring, CTIs classified against the actual reachable \
             spaces.")
  in
  let max_ctis_arg =
    Arg.(
      value & opt int 5
      & info [ "max-ctis" ] ~docv:"K"
          ~doc:"Stop a refuted check after recording K CTIs.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint the induction cursor to $(docv) periodically so a \
             budget-exhausted or interrupted check resumes with \
             $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restart from the $(b,--checkpoint) file if it exists (a \
             missing file just runs fresh).")
  in
  let max_seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget; on expiry the run writes a final \
             checkpoint (with $(b,--checkpoint)) and exits with code 3.")
  in
  let run n clauses concrete max_ctis checkpoint resume max_seconds =
    refusing_unusable @@ fun () ->
    install_signal_handlers ();
    let governor =
      Modelcheck.Governor.create ?wall_seconds:max_seconds
        ~interrupted_flag:interrupted ()
    in
    match I.parse_clauses clauses with
    | Error e -> `Error (false, e)
    | Ok cls -> (
        let ckpt =
          Option.map
            (fun path -> { Modelcheck.Checkpoint.path; every_states = 500_000 })
            checkpoint
        in
        let resume_hint () =
          match checkpoint with
          | Some f ->
              Printf.printf
                "resume with: anonsim inductive -n %d --clauses %s \
                 --checkpoint %s --resume\n"
                n clauses f
          | None -> ()
        in
        let finish_concrete () =
          if not concrete then `Ok ()
          else if n > 2 then
            `Error
              ( false,
                "--concrete is limited to n <= 2 (the full universe is \
                 enumerated); the abstract check covers larger n" )
          else
            match I.check_concrete ~max_ctis ~governor ~n cls with
            | I.C_proved cr ->
                Fmt.pr
                  "concrete cross-check (m = n, all wirings): proved@,%a@."
                  I.pp_report cr.I.k_report;
                `Ok ()
            | I.C_refuted cr ->
                Fmt.pr "concrete cross-check: refuted@,%a@." I.pp_report
                  cr.I.k_report;
                List.iteri
                  (fun i c ->
                    if i < 3 then
                      Fmt.pr "@,%a@." I.pp_ccti (I.shrink_ccti ~n cls c))
                  cr.I.k_ctis;
                Stdlib.exit exit_violation
            | I.C_gave_up { reason; processed } ->
                Fmt.pr "concrete cross-check gave up (%a) after %d states@."
                  Modelcheck.Governor.pp_reason reason processed;
                exit_tripped reason
        in
        match I.check_abstract ~max_ctis ~governor ?ckpt ~resume ~n cls with
        | I.Proved r ->
            Fmt.pr
              "inductive: both obligations discharged for n=%d — the \
               invariant holds in every reachable state of every \
               (m, wiring, schedule) instance at this n@,%a@."
              n I.pp_report r;
            retire_checkpoint checkpoint;
            finish_concrete ()
        | I.Refuted r ->
            Fmt.pr "inductive: refuted at n=%d@,%a@." n I.pp_report r;
            List.iteri
              (fun i cti ->
                if i < 3 then
                  Fmt.pr "@,shrunk CTI:@,%a@." I.pp_acti
                    (I.shrink_acti ~n cls cti))
              r.I.r_ctis;
            Stdlib.exit exit_violation
        | I.Gave_up { reason; processed } ->
            Fmt.pr "inductive: gave up (%a) after %d configurations@."
              Modelcheck.Governor.pp_reason reason processed;
            resume_hint ();
            exit_tripped reason)
  in
  Cmd.v
    (Cmd.info "inductive"
       ~doc:
         "Certify the Figure-3 snapshot invariant by induction: discharge \
          Init ⇒ Inv and Inv ∧ Next ⇒ Inv′ over an abstraction quantifying \
          out the register count, wiring and schedule, so a pass holds for \
          all of them at this $(b,-n).  Failed checks report shrunk, 1-minimal counterexamples \
          to induction; $(b,--concrete) cross-validates the abstraction \
          against the full concrete universe at n ≤ 2.")
    Term.(
      ret
        (const run $ n_arg ~default:2 $ clauses_arg $ concrete_arg
       $ max_ctis_arg $ checkpoint_arg $ resume_arg $ max_seconds_arg))

let main_cmd =
  let doc =
    "reproduction of Losa & Gafni, \"Understanding Read-Write Wait-Free \
     Coverings in the Fully-Anonymous Shared-Memory Model\" (PODC 2024)"
  in
  Cmd.group
    (Cmd.info "anonsim" ~version:"1.0.0" ~doc)
    [
      simulate_cmd;
      figure2_cmd;
      stable_views_cmd;
      lower_bound_cmd;
      check_snapshot_cmd;
      check_consensus_cmd;
      check_nonatomic_cmd;
      covering_cmd;
      faults_cmd;
      parallel_cmd;
      feasibility_cmd;
      inductive_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
