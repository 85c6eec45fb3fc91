(* fuzz: schedule-fuzzing CLI for the fully-anonymous shared-memory
   library.

   The default command runs a randomized campaign: random wirings, inputs
   and adversarial schedules (fair, starving, crash-prone, ultimately
   periodic) against a protocol's task oracle, with greedy shrinking of
   any counterexample to a 1-minimal scripted schedule.  The [replay]
   subcommand re-executes a printed counterexample verbatim.

   Examples:
     fuzz.exe --protocol snapshot --iterations 2000
     fuzz.exe --protocol double_collect --expect-bug
     fuzz.exe replay --protocol double_collect --inputs 1,1 \
       --wiring '1,2;2,1' --script '1,2,2,1,...'            *)

open Cmdliner

let protocols = String.concat ", " Fuzzing.Targets.keys

let protocol_arg =
  Arg.(
    value
    & opt string "snapshot"
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:(Printf.sprintf "Protocol to fuzz: one of %s." protocols))

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed; every case derives from it.")

let iterations_arg =
  Arg.(
    value & opt int 1_000
    & info [ "iterations" ] ~docv:"K" ~doc:"Maximum number of cases to run.")

let time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:"Stop the campaign after this much wall-clock time.")

let min_n_arg =
  Arg.(
    value & opt int 2
    & info [ "min-n" ] ~docv:"N" ~doc:"Smallest number of processors.")

let max_n_arg =
  Arg.(
    value & opt int 5
    & info [ "max-n" ] ~docv:"N" ~doc:"Largest number of processors.")

let m_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "m" ] ~docv:"M"
        ~doc:"Number of registers (default: the standard m = n).")

let max_steps_arg =
  Arg.(
    value & opt int 5_000
    & info [ "max-steps" ] ~docv:"K"
        ~doc:"Global step budget of each generated execution.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Shard campaign iterations across $(docv) OCaml domains.  Case \
           seeds derive from (campaign seed, iteration) alone and the \
           smallest failing iteration wins, so the reported counterexample \
           and its shrunk instance are identical for every domain count \
           (absent --time-budget).")

let fault_profile_arg =
  Arg.(
    value
    & opt string "none"
    & info [ "fault-profile" ] ~docv:"PROFILE"
        ~doc:
          (Printf.sprintf
             "Inject seeded fault plans into every case: one of %s."
             (String.concat ", " Fuzzing.Fault_gen.names)))

let expect_bug_arg =
  Arg.(
    value & flag
    & info [ "expect-bug" ]
        ~doc:
          "Invert the exit status: succeed only if a counterexample is \
           found (used to pin down planted bugs in known-unsound \
           protocols).")

let ints_of_string s =
  String.split_on_char ',' (String.trim s)
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun x -> int_of_string (String.trim x))

let with_target key f =
  match Fuzzing.Targets.find key with
  | Some t -> f t
  | None ->
      `Error
        (false, Printf.sprintf "unknown protocol %S (try one of %s)" key protocols)

(* campaign (default command) *)

(* OCaml 5.1's [Max_domains]: the runtime refuses to spawn more. *)
let max_domains = 128

(* Size checks made before any case runs, so a bad size is a usage error
   rather than an exception out of the generator or a protocol's [cfg]. *)
let size_error ~key ~max_registers ~domains ~min_n ~max_n ~m =
  let width = Repro_util.Bits.max_width in
  let m = Option.value m ~default:1 in
  List.find_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [
      (min_n < 1, Printf.sprintf "--min-n must be at least 1 (got %d)" min_n);
      ( max_n < min_n,
        Printf.sprintf "--max-n (%d) must be at least --min-n (%d)" max_n min_n
      );
      ( max_n > width,
        Printf.sprintf
          "--max-n must be at most %d, the processor mask width (got %d)"
          width max_n );
      (m < 1, Printf.sprintf "-m must be at least 1 (got %d)" m);
      ( m > max_registers,
        Printf.sprintf "-m must be at most %d for %s (got %d)" max_registers
          key m );
      ( domains < 1 || domains > max_domains,
        Printf.sprintf "--domains must be between 1 and %d (got %d)"
          max_domains domains );
    ]

let run_campaign key seed iterations time_budget domains min_n max_n m
    max_steps fault_profile expect_bug =
  let max_registers =
    match Fuzzing.Targets.find key with
    | Some (module T : Fuzzing.Target.S) -> T.max_registers
    | None -> max_int
  in
  match
    ( size_error ~key ~max_registers ~domains ~min_n ~max_n ~m,
      Fuzzing.Fault_gen.of_string fault_profile )
  with
  | Some msg, _ -> `Error (false, msg)
  | None, None ->
      `Error
        ( false,
          Printf.sprintf "unknown fault profile %S (try one of %s)"
            fault_profile
            (String.concat ", " Fuzzing.Fault_gen.names) )
  | None, Some fault_profile ->
  with_target key (fun (module T : Fuzzing.Target.S) ->
      let module H = Fuzzing.Harness.Make (T) in
      let report =
        H.campaign ~now:Unix.gettimeofday ?time_budget ~domains ?m
          ~n_range:(min_n, max_n) ~max_steps ~fault_profile ~seed ~iterations ()
      in
      Fmt.pr "%a@." (H.pp_report ~key) report;
      (* Runtime outcomes exit with [some_error] (123), not the CLI-error
         status cmdliner reserves for bad invocations. *)
      match (report.Fuzzing.Harness.counterexample, expect_bug) with
      | Some _, true | None, false -> `Ok ()
      | Some _, false ->
          Fmt.epr "fuzz: counterexample found@.";
          Stdlib.exit Cmd.Exit.some_error
      | None, true ->
          Fmt.epr "fuzz: expected to find a planted bug but none surfaced@.";
          Stdlib.exit Cmd.Exit.some_error)

let campaign_term =
  Term.(
    ret
      (const run_campaign $ protocol_arg $ seed_arg $ iterations_arg
     $ time_budget_arg $ domains_arg $ min_n_arg $ max_n_arg $ m_arg
     $ max_steps_arg $ fault_profile_arg $ expect_bug_arg))

(* replay *)

let inputs_req =
  Arg.(
    required
    & opt (some string) None
    & info [ "i"; "inputs" ] ~docv:"INPUTS"
        ~doc:"Comma-separated processor inputs (group identifiers).")

let wiring_req =
  Arg.(
    required
    & opt (some string) None
    & info [ "wiring" ] ~docv:"WIRING"
        ~doc:
          "Hidden wiring: one permutation per processor, rows separated by \
           ';', 1-based physical register per local index (e.g. \
           '1,2,3;3,1,2').")

let script_req =
  Arg.(
    required
    & opt (some string) None
    & info [ "script" ] ~docv:"SCRIPT"
        ~doc:"Comma-separated 1-based processor schedule to replay.")

let fault_plan_arg =
  Arg.(
    value
    & opt string ""
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Fault plan to re-inject during the replay, as printed by the \
           campaign: ';'-separated events like 'crash:p2\\@10', \
           'recover:p3\\@8', 'omit:p1\\@4', 'stale:p1\\@6', 'stuck:r2\\@0' \
           (1-based processors/registers, 0-based global step times).")

let run_replay key inputs wiring script fault_plan =
  with_target key (fun (module T : Fuzzing.Target.S) ->
      let module H = Fuzzing.Harness.Make (T) in
      match
        let inputs = Array.of_list (ints_of_string inputs) in
        let wiring_perms =
          String.split_on_char ';' wiring
          |> List.map (fun row -> List.map pred (ints_of_string row))
        in
        let script = List.map pred (ints_of_string script) in
        let inst =
          {
            Fuzzing.Harness.n = Array.length inputs;
            m =
              (match wiring_perms with
              | row :: _ -> List.length row
              | [] -> invalid_arg "empty wiring");
            wiring_perms;
            inputs;
            script;
            faults = Anonmem.Fault.of_string fault_plan;
          }
        in
        (* Validates the wiring/instance shape before running. *)
        ignore (Anonmem.Wiring.of_lists wiring_perms);
        (inst, H.run_instance inst)
      with
      | exception (Invalid_argument msg | Failure msg) -> `Error (false, msg)
      | inst, run ->
          Fmt.pr "%a@." Repro_util.Text_table.pp (H.trace_table inst);
          (match
             H.verdict ~n:inst.Fuzzing.Harness.n ~m:inst.Fuzzing.Harness.m
               ~inputs:inst.Fuzzing.Harness.inputs run
           with
          | Ok () -> Fmt.pr "verdict: no violation@."
          | Error f -> Fmt.pr "verdict: %a@." Tasks.Task_failure.pp f);
          `Ok ())

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a shrunk counterexample (as printed by a campaign) and \
          re-judge it.")
    Term.(
      ret
        (const run_replay $ protocol_arg $ inputs_req $ wiring_req $ script_req
       $ fault_plan_arg))

let main_cmd =
  let doc =
    "schedule fuzzing with counterexample shrinking for the fully-anonymous \
     shared-memory algorithms"
  in
  Cmd.group ~default:campaign_term (Cmd.info "fuzz" ~version:"1.0.0" ~doc) [ replay_cmd ]

let () = exit (Cmd.eval main_cmd)
