(** Randomized search for existential claims about executions.

    Two claims of the paper are existential: (i) the Figure-3 algorithm
    does {e not} implement atomic memory snapshots — some execution makes a
    processor return a set of inputs that the memory never contained
    (Section 8); (ii) naive termination rules admit violating executions.
    For such claims a witness execution is a complete proof; this module
    hunts for witnesses by sampling random wirings and random fair
    schedules from a deterministic seed, so every witness found is
    replayable. *)

open Repro_util

module Search (P : Anonmem.Protocol.S) = struct
  module Sys = Anonmem.System.Make (P)

  type run = {
    seed : int;
    wiring : Anonmem.Wiring.t;
    steps : int;
    state : Sys.state;
  }

  (** Run one random execution to quiescence ([None] if some processor had
      not terminated after [max_steps]). *)
  let random_run ~cfg ~inputs ~max_steps seed =
    let rng = Rng.create ~seed in
    let wiring =
      Anonmem.Wiring.random rng ~n:(P.processors cfg) ~m:(P.registers cfg)
    in
    let state = Sys.init ~cfg ~wiring ~inputs in
    let sched = Anonmem.Scheduler.random (Rng.split rng) in
    let stop, steps = Sys.run ~max_steps ~sched state in
    match stop with
    | Sys.All_halted -> Some { seed; wiring; steps; state }
    | Sys.Scheduler_done | Sys.Max_steps -> None

  type nonatomic_witness = {
    witness_run : run;
    culprit : int;  (** processor whose output was never in memory *)
    culprit_output : Iset.t;
    memory_sets_seen : Iset.t list;
        (** every distinct value of "set of inputs present in memory",
            chronological *)
  }

  (** Search for an execution in which some processor outputs a set of
      inputs [I] such that at no point in time the set of inputs present in
      memory (the union of all register views) equalled [I] — the
      non-atomicity witness of Section 8.  Tries seeds [0 .. attempts-1]. *)
  let find_nonatomic ?(attempts = 1_000) ?(max_steps = 20_000)
      ~cfg ~inputs ~memory_set ~output_set () =
    let run_one seed =
      let rng = Rng.create ~seed in
      let wiring =
        Anonmem.Wiring.random rng ~n:(P.processors cfg) ~m:(P.registers cfg)
      in
      let state = Sys.init ~cfg ~wiring ~inputs in
      let sched = Anonmem.Scheduler.random (Rng.split rng) in
      let seen = ref [ memory_set state.Sys.registers ] in
      let record () =
        let s = memory_set state.Sys.registers in
        if not (List.exists (Iset.equal s) !seen) then seen := s :: !seen
      in
      let on_event ~time:_ = function
        | Sys.Write_ev _ -> record ()
        | Sys.Read_ev _ -> ()
      in
      match Sys.run ~max_steps ~sched ~on_event state with
      | (Sys.Scheduler_done | Sys.Max_steps), _ -> None
      | Sys.All_halted, steps ->
          let outs = Sys.outputs state in
          let memory_sets_seen = List.rev !seen in
          let culprit = ref None in
          Array.iteri
            (fun p -> function
              | Some o when !culprit = None ->
                  let os = output_set o in
                  if not (List.exists (Iset.equal os) memory_sets_seen) then
                    culprit := Some (p, os)
              | _ -> ())
            outs;
          Option.map
            (fun (culprit, culprit_output) ->
              {
                witness_run = { seed; wiring; steps; state };
                culprit;
                culprit_output;
                memory_sets_seen;
              })
            !culprit
    in
    let rec go seed =
      if seed >= attempts then None
      else match run_one seed with Some w -> Some w | None -> go (seed + 1)
    in
    go 0

  (** Search random executions for one whose final outcome fails [check];
      returns the failing run and the error message.  Used to hunt for task
      violations of baseline protocols. *)
  let find_outcome_violation ?(attempts = 1_000)
      ?(max_steps = 20_000) ~cfg ~inputs ~group_of_input ~to_task_output ~check
      () =
    let rec go seed =
      if seed >= attempts then None
      else
        match random_run ~cfg ~inputs ~max_steps seed with
        | None -> go (seed + 1)
        | Some run -> (
            let outcome =
              Tasks.Outcome.make
                ~inputs:(Array.map group_of_input inputs)
                ~outputs:
                  (Array.map (Option.map to_task_output) (Sys.outputs run.state))
                ()
            in
            match check outcome with
            | Ok () -> go (seed + 1)
            | Error message -> Some (run, message))
    in
    go 0
end

(** Replay validation of counterexample traces: a trace is only a proof if
    it is a real execution, i.e. every listed processor is enabled when it
    moves and the steps land where the checker said they would.  The
    differential suite replays every counterexample produced by the
    sequential, reduced and parallel engines through this module. *)
module Replay (P : Explorer.CHECKABLE) = struct
  module E = Explorer.Make (P)

  let start ~cfg ~inputs =
    Explorer.refuse_choices ~engine:"Witness.Replay" (P.max_choices cfg);
    E.init_state ~cfg ~inputs

  (** Replay a pid path from the initial state, returning the state after
      each step.  Raises [Invalid_argument] if some pid is halted when its
      turn comes — i.e. succeeds only on genuine executions — and on a
      configuration with write choices, whose steps are not pids. *)
  let run ~cfg ~wiring ~inputs path =
    let st = ref (start ~cfg ~inputs) in
    List.map
      (fun p ->
        st := E.successor cfg wiring !st p;
        (p, !st))
      path

  (** Final state of the replayed path. *)
  let final ~cfg ~wiring ~inputs path =
    List.fold_left
      (fun st p -> E.successor cfg wiring st p)
      (start ~cfg ~inputs) path
end
