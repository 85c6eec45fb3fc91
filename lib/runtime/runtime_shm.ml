(** Real shared-memory runtime: run any fully-anonymous protocol on actual
    OCaml 5 domains.

    The simulator in {!Anonmem.System} interleaves steps under a scheduler;
    this module instead spawns one domain per processor and backs the [M]
    anonymous registers with [Atomic.t] cells holding immutable protocol
    values.  Atomic reads and writes of immutable values give exactly the
    MWMR atomic-register semantics of the model (each access is a single
    linearizable load or store), and the hardware/OS scheduler plays the
    role of the asynchronous adversary.  Each domain is wired through its
    own hidden permutation, as in the model.

    The runtime is supervised: every domain body is caught (no exception
    ever escapes to [Domain.join]), each processor reports a structured
    {!Make.status}, and an {!Anonmem.Fault} plan can be injected — here
    [at] times are the processor's {e own} operation counts, since domains
    share no global clock.  Crash-recovery is realized as bounded respawn
    with the same input and a fresh local state (the restarted processor
    cannot know it is the same one).  A watchdog wall-clock [timeout]
    (monotonic clock, checked every 256 operations) bounds runs whose step
    budget alone is too coarse.

    This is the "production" face of the library: the example
    [examples/multicore_snapshot.ml] and the [X2] experiment run the
    Figure-3 snapshot, renaming and consensus algorithms on real
    parallelism and validate the task properties of the collected
    outputs. *)

open Repro_util

module Journal = Journal
(** Re-export: the append-only checksummed run journal (see
    [journal.mli]), the durable record of long verification sweeps. *)

(** Watchdog budgets used by the supervision tests.

    The tests bound non-terminating protocols (write-scan, the Bomb) with
    step budgets; on a loaded box — e.g. when the model checker's domain
    pool shares the cores — a hard-coded literal is a flake magnet.  Every
    test-side timeout derives from this single wall-clock constant, which
    [ANONSIM_TEST_WATCHDOG] (seconds, a float) overrides without
    recompiling, so a slow CI runner is one environment variable away from
    green. *)
module Watchdog = struct
  let env_var = "ANONSIM_TEST_WATCHDOG"
  let default_seconds = 5.0

  let seconds () =
    match Sys.getenv_opt env_var with
    | Some s -> ( match float_of_string_opt s with Some f when f > 0. -> f | _ -> default_seconds)
    | None -> default_seconds

  (* Conversion used to derive *step* budgets from the wall-clock budget:
     deliberately conservative (atomics sustain millions of ops/s, so this
     budget expires long before the wall clock would). *)
  let steps_per_second = 1_000
  let steps () = max 1 (int_of_float (seconds () *. float_of_int steps_per_second))
end

module Make (P : Anonmem.Protocol.S) = struct
  type status =
    | Done
    | Restarted of int
        (** completed, but only after this many injected crash-recoveries *)
    | Timed_out of { elapsed_s : float }
        (** step budget or watchdog deadline exhausted after [elapsed_s]
            seconds of wall clock *)
    | Crashed of { injected : bool; reason : string }
        (** [injected = true]: a planned fault; [false]: a real exception
            escaped the protocol code (reported, never re-raised across
            the domain boundary) *)

  type outcome = {
    outputs : P.output option array;
    steps : int array;  (** shared-memory operations issued per processor *)
    statuses : status array;
    wiring : Anonmem.Wiring.t;
  }

  let pp_status ppf = function
    | Done -> Fmt.string ppf "done"
    | Restarted k -> Fmt.pf ppf "done after %d restart%s" k (if k = 1 then "" else "s")
    | Timed_out { elapsed_s } -> Fmt.pf ppf "timed out after %.2fs" elapsed_s
    | Crashed { injected; reason } ->
        Fmt.pf ppf "crashed (%s%s)" (if injected then "injected: " else "") reason

  exception Step_limit of int  (** payload: operations completed *)

  (* Internal control-flow exceptions of the supervisor; never escape. *)
  exception Injected_crash_stop
  exception Injected_crash_recover
  exception Deadline_exceeded

  (* One processor's life: repeatedly execute the pending operation against
     the atomic registers until the protocol halts (or the step budget runs
     out, for non-terminating protocols such as the write-scan loop).
     [steps] is owned by this processor's domain and survives respawns, so
     budgets are cumulative across recoveries and the supervisor always
     knows the real operation count.  Fault arms ([crash_op], [recover_ops],
     [omit_ops], [stale_ops]) fire on own-operation indices. *)
  let processor_loop cfg wiring registers prev stuck ~deadline ~max_steps
      ~crash_op ~recover_ops ~omit_ops ~stale_ops p ~steps local0 =
    let due ops =
      match !ops with
      | k :: rest when !steps >= k ->
          ops := rest;
          true
      | _ -> false
    in
    let rec go local =
      match P.next cfg local with
      | None -> local
      | Some op ->
          if !steps >= max_steps then raise (Step_limit !steps);
          (match crash_op with
          | Some k when !steps >= k -> raise Injected_crash_stop
          | _ -> ());
          if due recover_ops then raise Injected_crash_recover;
          if
            !steps land 255 = 0
            && Int64.compare (Monotonic_clock.now ()) deadline > 0
          then raise Deadline_exceeded;
          incr steps;
          let local =
            match op with
            | Anonmem.Protocol.Read i ->
                let r = Anonmem.Wiring.phys wiring ~p i in
                let v =
                  if due stale_ops then Atomic.get prev.(r)
                  else Atomic.get registers.(r)
                in
                P.apply_read cfg local ~reg:i v
            | Anonmem.Protocol.Write (i, v) ->
                let r = Anonmem.Wiring.phys wiring ~p i in
                let dropped =
                  (match stuck.(r) with
                  | Some (k, attempts) -> Atomic.fetch_and_add attempts 1 >= k
                  | None -> false)
                  || due omit_ops
                in
                if not dropped then (
                  (* [prev] trails the register contents for stale reads;
                     the two stores are not one atomic update, which only
                     blurs *which* stale value a degraded read returns —
                     fine for fault injection. *)
                  Atomic.set prev.(r) (Atomic.get registers.(r));
                  Atomic.set registers.(r) v);
                P.apply_write cfg local
          in
          go local
    in
    go local0

  (** Run [inputs] on one domain per processor.  [max_steps] bounds each
      processor's operation count; by default exceeding it fails the whole
      run, while [~allow_timeout:true] reports the timed-out processors as
      having no output (the right reading for obstruction-free protocols,
      where contention may legitimately starve a processor).  [timeout]
      adds a wall-clock watchdog (seconds, monotonic clock) with the same
      policy.  [faults] injects an {!Anonmem.Fault} plan with [at] read as
      own-operation counts; injected crash-recoveries respawn the
      processor with the same input up to [max_restarts] times.  Injected
      faults degrade the outcome per-processor (see [statuses]) instead of
      failing the run; a {e real} exception escaping protocol code still
      returns [Error], but with the processor and reason attached, after
      every domain has been joined.  The wiring defaults to a random one
      drawn from [seed]. *)
  let run ?(seed = 0) ?wiring ?(max_steps = 10_000_000) ?(allow_timeout = false)
      ?(faults = []) ?timeout ?(max_restarts = 3) ~cfg ~inputs () =
    let n = P.processors cfg and m = P.registers cfg in
    if Array.length inputs <> n then invalid_arg "Runtime_shm.run: bad inputs";
    let rng = Rng.create ~seed in
    let wiring =
      match wiring with Some w -> w | None -> Anonmem.Wiring.random rng ~n ~m
    in
    let registers = Array.init m (fun _ -> Atomic.make (P.register_init cfg)) in
    let prev = Array.init m (fun _ -> Atomic.make (P.register_init cfg)) in
    let crash_ops = Anonmem.Fault.crash_stops ~n faults in
    let recover_arms = Array.make n [] in
    List.iter
      (fun (at, p) ->
        if p >= 0 && p < n then recover_arms.(p) <- recover_arms.(p) @ [ at ])
      (Anonmem.Fault.recoveries faults);
    let omit_arms = Anonmem.Fault.omit_arms ~n faults in
    let stale_arms = Anonmem.Fault.stale_arms ~n faults in
    let stuck =
      Array.map
        (Option.map (fun k -> (k, Atomic.make 0)))
        (Anonmem.Fault.stuck_times ~m faults)
    in
    let deadline =
      match timeout with
      | Some secs ->
          Int64.add (Monotonic_clock.now ()) (Int64.of_float (secs *. 1e9))
      | None -> Int64.max_int
    in
    let started = Monotonic_clock.now () in
    let elapsed_s () =
      Int64.to_float (Int64.sub (Monotonic_clock.now ()) started) /. 1e9
    in
    let run_processor p =
      let steps = ref 0 in
      let recover_ops = ref recover_arms.(p) in
      let omit_ops = ref omit_arms.(p) in
      let stale_ops = ref stale_arms.(p) in
      let rec attempt restarts =
        match
          processor_loop cfg wiring registers prev stuck ~deadline ~max_steps
            ~crash_op:crash_ops.(p) ~recover_ops ~omit_ops ~stale_ops p ~steps
            (P.init cfg inputs.(p))
        with
        | local ->
            let status = if restarts > 0 then Restarted restarts else Done in
            (status, P.output cfg local, !steps)
        | exception Step_limit k ->
            (Timed_out { elapsed_s = elapsed_s () }, None, k)
        | exception Deadline_exceeded ->
            (Timed_out { elapsed_s = elapsed_s () }, None, !steps)
        | exception Injected_crash_stop ->
            (Crashed { injected = true; reason = "crash-stop" }, None, !steps)
        | exception Injected_crash_recover ->
            if restarts >= max_restarts then
              ( Crashed
                  {
                    injected = true;
                    reason =
                      Printf.sprintf "crash (respawn budget %d exhausted)"
                        max_restarts;
                  },
                None,
                !steps )
            else attempt (restarts + 1)
        | exception exn ->
            ( Crashed { injected = false; reason = Printexc.to_string exn },
              None,
              !steps )
      in
      attempt 0
    in
    (* Every domain body is total: the matches above catch everything, so
       [Domain.join] never re-raises and all domains are always joined. *)
    let domains = Array.init n (fun p -> Domain.spawn (fun () -> run_processor p)) in
    let results = Array.map Domain.join domains in
    let statuses = Array.map (fun (s, _, _) -> s) results in
    let outputs = Array.map (fun (_, o, _) -> o) results in
    let steps = Array.map (fun (_, _, k) -> k) results in
    let real_crash = ref None in
    Array.iteri
      (fun p -> function
        | Crashed { injected = false; reason } when !real_crash = None ->
            real_crash := Some (p, reason)
        | _ -> ())
      statuses;
    match !real_crash with
    | Some (p, reason) ->
        Error (Fmt.str "processor %d raised: %s" (p + 1) reason)
    | None ->
        if
          (not allow_timeout)
          && Array.exists (function Timed_out _ -> true | _ -> false) statuses
        then Error (Fmt.str "some processor exceeded %d operations" max_steps)
        else Ok { outputs; steps; statuses; wiring }
end

module Snapshot_run = Make (Algorithms.Snapshot)
module Renaming_run = Make (Algorithms.Renaming)
module Consensus_run = Make (Algorithms.Consensus)

(** Solve the snapshot task on real domains and validate the containment
    property of the collected outputs. *)
let parallel_snapshot ?seed ?max_steps ?faults ~inputs () =
  let n = Array.length inputs in
  let cfg = Algorithms.Snapshot.standard ~n in
  match Snapshot_run.run ?seed ?max_steps ?faults ~cfg ~inputs () with
  | Error e -> Error e
  | Ok r -> (
      let outcome = Tasks.Outcome.make ~inputs ~outputs:r.Snapshot_run.outputs () in
      match
        ( Tasks.Snapshot_task.check_strong outcome,
          Tasks.Snapshot_task.check_group_solution outcome )
      with
      | Ok (), Ok () -> Ok r
      | Error e, _ | _, Error e ->
          Error
            (Fmt.str "parallel snapshot outputs invalid: %a"
               Tasks.Task_failure.pp e))

(** Obstruction-free consensus on real domains can livelock under true
    contention, so processors that fail to decide within the step budget
    are reported as undecided; agreement/validity are checked on the
    processors that did decide.  [Ok (decided, undecided_count)]. *)
let parallel_consensus ?seed ?(max_steps = 10_000_000) ~inputs () =
  let n = Array.length inputs in
  let cfg = Algorithms.Consensus.standard ~n in
  match Consensus_run.run ?seed ~max_steps ~allow_timeout:true ~cfg ~inputs () with
  | Error e -> Error e
  | Ok r -> (
      let outcome = Tasks.Outcome.make ~inputs ~outputs:r.Consensus_run.outputs () in
      match Tasks.Consensus_task.check outcome with
      | Ok () ->
          let undecided =
            Array.fold_left
              (fun acc -> function None -> acc + 1 | Some _ -> acc)
              0 r.Consensus_run.outputs
          in
          Ok (r, undecided)
      | Error e ->
          Error
            (Fmt.str "parallel consensus outputs invalid: %a"
               Tasks.Task_failure.pp e))
