(** Bounded-fault exploration: exhaustive safety checking under at most
    [k] injected crash-stops.

    The fault-free checker quantifies over schedules only; a crash search
    additionally quantifies over {e when and whom} crash-stop faults hit.
    A crash-stop is time-abstract here: instead of fixing fault times as
    the simulator's {!Anonmem.Fault.plan} does, the search branches on
    "processor [p] crashes {e now}" at every reachable state, which covers
    every timed plan with at most [k] crashes (and more — a crash between
    any two global steps, under any schedule).  A safety certificate from
    this search therefore subsumes every seeded crash-stop campaign of the
    fuzzer at the same sizes.

    The search itself is {!Explorer.Make.explore} with [~max_crashes]: its
    keys carry the crashed set as a mask byte and its crash moves are the
    pids [n + p].  This module is a decoding layer over that exploration:
    it reads the crash-branch count off the edges and turns a violation's
    trace into {!step}s and a crashed mask.

    Only safety (a state invariant) is checked: wait-freedom is trivially
    lost for the crashed processors themselves, and the surviving
    processors' termination under crash-stop is already the fuzzer's
    wait-freedom oracle territory.  The search graph is explored BFS-first
    so a reported violation has a minimal-length witness. *)

module Make (P : Explorer.CHECKABLE) = struct
  module E = Explorer.Make (P)

  type step =
    | Step of int  (** processor id takes its pending protocol step *)
    | Crash of int  (** processor id crash-stops (no memory effect) *)

  let pp_step ppf = function
    | Step p -> Fmt.pf ppf "p%d" (p + 1)
    | Crash p -> Fmt.pf ppf "crash:p%d" (p + 1)

  type violation = {
    message : string;
    state : E.state;  (** the violating core state *)
    crashed : int;  (** bitmask of crash-stopped processors *)
    steps : step list;  (** minimal-length witness from the initial state *)
  }

  type stats = {
    states : int;  (** distinct (core state, crashed set) pairs *)
    transitions : int;
    crash_branches : int;  (** how many of the transitions were crashes *)
  }

  type result =
    | Safe of stats
    | Invariant_failed of violation
    | State_limit of int
    | Exhausted of { reason : Governor.reason; states : int }
        (** a resource governor tripped; resumable when a checkpoint
            policy was in force *)

  let explore ?max_states ?(max_crashes = 1) ?reduction ?governor ?ckpt
      ?resume ?ckpt_extra ~invariant ~cfg ~wiring ~inputs () =
    let n = P.processors cfg in
    match
      E.explore ?max_states ~max_crashes ?reduction ?governor ?ckpt ?resume
        ?ckpt_extra ~invariant ~cfg ~wiring ~inputs ()
    with
    | E.Explored space ->
        Safe
          {
            states = E.state_count space;
            transitions = E.transition_count space;
            crash_branches = E.crash_transitions space;
          }
    | E.Invariant_failed (_, v) ->
        let steps =
          List.map
            (fun (pid, _) -> if pid < n then Step pid else Crash (pid - n))
            v.trace
        in
        let crashed =
          List.fold_left
            (fun mask -> function Crash p -> mask lor (1 lsl p) | Step _ -> mask)
            0 steps
        in
        let state =
          match List.rev v.trace with
          | (_, st) :: _ -> st
          | [] -> E.init_state ~cfg ~inputs
        in
        Invariant_failed { message = v.message; state; crashed; steps }
    | E.State_limit k -> State_limit k
    | E.Exhausted { reason; states } -> Exhausted { reason; states }

  type summary = {
    wirings_checked : int;
    total_states : int;
    total_transitions : int;
    total_crash_branches : int;
  }

  (* The crash sweep's position in a checkpoint ({!Wiring_sweep}). *)
  let sweep_section =
    {
      Wiring_sweep.name = "crash_sweep";
      to_ints =
        (fun s ->
          [|
            s.wirings_checked;
            s.total_states;
            s.total_transitions;
            s.total_crash_branches;
          |]);
      of_ints =
        (fun a ->
          {
            wirings_checked = a.(0);
            total_states = a.(1);
            total_transitions = a.(2);
            total_crash_branches = a.(3);
          });
    }

  (** Check the invariant across every wiring (processor 0 pinned to the
      identity — lossless by register anonymity) for one input
      assignment, under at most [max_crashes] crash-stops injected at
      arbitrary points.  With [ckpt], each per-wiring search checkpoints
      with the sweep's position (section ["crash_sweep"]) and the
      caller's [ckpt_extra] sections beside it, so [~resume] re-enters
      the sweep where it stopped. *)
  let check_all_wirings ?max_states ?max_crashes ?(reduction = false) ?wirings
      ?governor ?ckpt ?(resume = false) ?(ckpt_extra = []) ~invariant ~cfg
      ~inputs () =
    let n = P.processors cfg in
    Wiring_sweep.run ?wirings ~section:sweep_section ?ckpt ~resume
      ~n ~m:(P.registers cfg)
      ~init:
        {
          wirings_checked = 0;
          total_states = 0;
          total_transitions = 0;
          total_crash_branches = 0;
        }
      (fun ~resume ~ckpt_extra:position wiring summary ->
        match
          explore ?max_states ?max_crashes ~reduction ?governor ?ckpt ~resume
            ~ckpt_extra:(position @ ckpt_extra) ~invariant ~cfg ~wiring
            ~inputs ()
        with
        | Exhausted { reason; states } ->
            Error (Explorer.exhausted_error reason states)
        | State_limit k -> Error (Explorer.limit_error k)
        | Invariant_failed v ->
            Error
              (Fmt.str
                 "invariant violated under wiring %a with crashes {%a}: %s \
                  (witness: %a)"
                 Anonmem.Wiring.pp wiring
                 Fmt.(list ~sep:comma int)
                 (List.filter
                    (fun p -> v.crashed land (1 lsl p) <> 0)
                    (List.init n (fun p -> p)))
                 v.message
                 Fmt.(list ~sep:(any " ") pp_step)
                 v.steps)
        | Safe stats ->
            Ok
              {
                wirings_checked = summary.wirings_checked + 1;
                total_states = summary.total_states + stats.states;
                total_transitions = summary.total_transitions + stats.transitions;
                total_crash_branches =
                  summary.total_crash_branches + stats.crash_branches;
              })
end
