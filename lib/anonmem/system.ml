(** Operational semantics of the fully-anonymous model: system states and
    atomic steps for a given protocol.

    A system state records the contents of the [M] physical registers, who
    last wrote each of them (bookkeeping used by the analyses, invisible to
    processors), each processor's local state, and the fixed hidden wiring.
    A step executes the pending operation of one processor, routing its
    private register index through the wiring — reads and writes are atomic,
    one register at a time, exactly as in Section 2 of the paper. *)

module Make (P : Protocol.S) = struct
  type state = {
    cfg : P.cfg;
    wiring : Wiring.t;
    registers : P.value array;  (** indexed by physical register *)
    last_writer : int option array;
        (** physical register -> last writing processor; [None] = initial
            value still in place.  Ghost state for the analyses. *)
    locals : P.local array;
    inputs : P.input array;
        (** the original inputs — crash-recovery restarts a processor from
            [P.init cfg inputs.(p)] (it cannot know it is the same one) *)
  }

  type event =
    | Read_ev of {
        p : int;
        local_reg : int;
        phys_reg : int;
        value : P.value;
        writer : int option;  (** whom [p] "reads from" (Section 2) *)
      }
    | Write_ev of {
        p : int;
        local_reg : int;
        phys_reg : int;
        value : P.value;
        previous : P.value;
        overwrote : int option;  (** previous last writer, if any *)
      }

  (** What the fault interpreter did, observable through [run ~on_fault].
      [Dropped_write] consumes a scheduler step (the processor believes it
      wrote); crash and restart notes consume none. *)
  type fault_note =
    | Dropped_write of {
        p : int;
        local_reg : int;
        phys_reg : int;
        value : P.value;  (** the value that never reached the register *)
        stuck : bool;  (** register stuck-at fault (else a write omission) *)
      }
    | Stale_read_note of {
        p : int;
        local_reg : int;
        phys_reg : int;
        stale : P.value;  (** what the degraded read returned *)
        fresh : P.value;  (** what an atomic read would have returned *)
      }
    | Crash_note of { p : int; recovering : bool }
    | Restart_note of { p : int; attempt : int }

  let init ~cfg ~wiring ~inputs =
    let n = P.processors cfg and m = P.registers cfg in
    if Wiring.processors wiring <> n then
      invalid_arg "System.init: wiring has wrong number of processors";
    if Wiring.registers wiring <> m then
      invalid_arg "System.init: wiring has wrong number of registers";
    if Array.length inputs <> n then
      invalid_arg "System.init: wrong number of inputs";
    {
      cfg;
      wiring;
      registers = Array.make m (P.register_init cfg);
      last_writer = Array.make m None;
      locals = Array.map (P.init cfg) inputs;
      inputs = Array.copy inputs;
    }

  let processors s = P.processors s.cfg
  let is_halted s p = P.halted s.cfg s.locals.(p)

  let enabled s =
    List.filter (fun p -> not (is_halted s p)) (List.init (processors s) Fun.id)

  let all_halted s = enabled s = []
  let output s p = P.output s.cfg s.locals.(p)
  let outputs s = Array.init (processors s) (output s)

  let event_of s p =
    match P.next s.cfg s.locals.(p) with
    | None -> None
    | Some (Protocol.Read i) ->
        let r = Wiring.phys s.wiring ~p i in
        Some
          (Read_ev
             {
               p;
               local_reg = i;
               phys_reg = r;
               value = s.registers.(r);
               writer = s.last_writer.(r);
             })
    | Some (Protocol.Write (i, v)) ->
        let r = Wiring.phys s.wiring ~p i in
        Some
          (Write_ev
             {
               p;
               local_reg = i;
               phys_reg = r;
               value = v;
               previous = s.registers.(r);
               overwrote = s.last_writer.(r);
             })

  (* In-place transition; callers owning [s] exclusively use this for
     speed. *)
  let step_in_place s p =
    match event_of s p with
    | None -> invalid_arg "System.step: processor has terminated"
    | Some (Read_ev { local_reg; phys_reg; value; _ } as ev) ->
        s.locals.(p) <- P.apply_read s.cfg s.locals.(p) ~reg:local_reg value;
        let _ = phys_reg in
        ev
    | Some (Write_ev { phys_reg; value; _ } as ev) ->
        s.registers.(phys_reg) <- value;
        s.last_writer.(phys_reg) <- Some p;
        s.locals.(p) <- P.apply_write s.cfg s.locals.(p);
        ev

  let copy s =
    {
      s with
      registers = Array.copy s.registers;
      last_writer = Array.copy s.last_writer;
      locals = Array.copy s.locals;
    }

  (* Pure transition: never mutates [s]. *)
  let step s p =
    let s' = copy s in
    let ev = step_in_place s' p in
    (s', ev)

  type stop_reason = All_halted | Scheduler_done | Max_steps

  (* The faulty interpreter.  Compiles the plan into per-processor /
     per-register arrays once, then runs the same scheduler loop with the
     fault semantics woven in:
     - [Crash_stop p at]: p is removed from [enabled] at times >= at;
     - [Crash_recover p at]: at time at, p's local state is reset to
       [P.init cfg inputs.(p)] (consuming no step);
     - [Omit_write p at]: armed at [at], fires on p's next write — the
       register keeps its value but p's local state advances (the write
       consumes its scheduler step);
     - [Stale_read p at]: armed at [at], fires on p's next read, which
       returns the register's previous value;
     - [Stuck_register r at]: every write to physical register r at time
       >= at is dropped (local state still advances). *)
  let run_faulty ~max_steps ~plan ~sched ?on_event ?on_fault state =
    let n = processors state and m = Array.length state.registers in
    let ev time e = match on_event with Some f -> f ~time e | None -> () in
    let note time nt = match on_fault with Some f -> f ~time nt | None -> () in
    let crash_at = Fault.crash_stops ~n plan in
    let recoveries = ref (Fault.recoveries plan) in
    let omits = Fault.omit_arms ~n plan in
    let stales = Fault.stale_arms ~n plan in
    let stuck_at = Fault.stuck_times ~m plan in
    let restarts = Array.make n 0 in
    let crash_noted = Array.make n false in
    (* Previous value of each physical register, for stale reads. *)
    let prev = Array.copy state.registers in
    let alive time p =
      match crash_at.(p) with Some c -> time < c | None -> true
    in
    let pop_due arr p (time : int) =
      match arr.(p) with
      | at :: rest when at <= time ->
          arr.(p) <- rest;
          true
      | _ -> false
    in
    let step_faulty time p =
      match event_of state p with
      | None -> invalid_arg "System.step: processor has terminated"
      | Some (Read_ev { local_reg; phys_reg; value; writer; _ }) ->
          if pop_due stales p time then (
            let stale = prev.(phys_reg) in
            state.locals.(p) <-
              P.apply_read state.cfg state.locals.(p) ~reg:local_reg stale;
            note time (Stale_read_note { p; local_reg; phys_reg; stale; fresh = value });
            ev time (Read_ev { p; local_reg; phys_reg; value = stale; writer = None }))
          else (
            state.locals.(p) <-
              P.apply_read state.cfg state.locals.(p) ~reg:local_reg value;
            ev time (Read_ev { p; local_reg; phys_reg; value; writer }))
      | Some (Write_ev { local_reg; phys_reg; value; previous; overwrote; _ }) ->
          let stuck =
            match stuck_at.(phys_reg) with Some t -> time >= t | None -> false
          in
          if stuck || pop_due omits p time then (
            state.locals.(p) <- P.apply_write state.cfg state.locals.(p);
            note time (Dropped_write { p; local_reg; phys_reg; value; stuck }))
          else (
            prev.(phys_reg) <- state.registers.(phys_reg);
            state.registers.(phys_reg) <- value;
            state.last_writer.(phys_reg) <- Some p;
            state.locals.(p) <- P.apply_write state.cfg state.locals.(p);
            ev time (Write_ev { p; local_reg; phys_reg; value; previous; overwrote }))
    in
    let rec go time =
      if time >= max_steps then (Max_steps, time)
      else
        match !recoveries with
        | (at, p) :: rest when at <= time ->
            (* Restart consumes no step: amnesiac rebirth on the original
               input. *)
            recoveries := rest;
            restarts.(p) <- restarts.(p) + 1;
            note time (Crash_note { p; recovering = true });
            state.locals.(p) <- P.init state.cfg state.inputs.(p);
            note time (Restart_note { p; attempt = restarts.(p) });
            go time
        | _ -> (
            Array.iteri
              (fun p noted ->
                if (not noted) && not (alive time p) then (
                  crash_noted.(p) <- true;
                  if not (is_halted state p) then
                    note time (Crash_note { p; recovering = false })))
              crash_noted;
            match List.filter (alive time) (enabled state) with
            | [] -> ((if all_halted state then All_halted else Scheduler_done), time)
            | en -> (
                match Scheduler.pick sched ~time ~enabled:en with
                | None -> (Scheduler_done, time)
                | Some p ->
                    if not (List.mem p en) then
                      invalid_arg
                        "System.run: scheduler picked an unavailable processor";
                    step_faulty time p;
                    go (time + 1)))
    in
    go 0

  (* Silent transition: the same state change as [step_in_place] but
     without constructing the event record — and without the [last_writer]
     ghost update, which exists only to decorate events and renderings.
     The zero-observer fast path below is the only caller. *)
  let step_silent s p =
    match P.next s.cfg s.locals.(p) with
    | None -> invalid_arg "System.step: processor has terminated"
    | Some (Protocol.Read i) ->
        let r = Wiring.phys s.wiring ~p i in
        s.locals.(p) <- P.apply_read s.cfg s.locals.(p) ~reg:i s.registers.(r)
    | Some (Protocol.Write (i, v)) ->
        let r = Wiring.phys s.wiring ~p i in
        s.registers.(r) <- v;
        s.locals.(p) <- P.apply_write s.cfg s.locals.(p)

  (* The zero-observer fast path: no event records, no ghost bookkeeping,
     and the enabled list is maintained incrementally (halting is
     permanent in the fault-free semantics, so it only ever shrinks —
     recomputed from scratch it would hold exactly the same pids in the
     same increasing order, which keeps scheduler decisions identical to
     the observed path). *)
  let run_fast ?(from_time = 0) ~max_steps ~sched ?step_counts state =
    let count =
      match step_counts with
      | None -> fun _ -> ()
      | Some c -> fun p -> c.(p) <- c.(p) + 1
    in
    let rec go time enabled =
      if time >= max_steps then (Max_steps, time)
      else
        match enabled with
        | [] -> (All_halted, time)
        | en -> (
            match Scheduler.pick sched ~time ~enabled:en with
            | None -> (Scheduler_done, time)
            | Some p ->
                (* [en] is exactly the non-halted set here, so membership
                   is a halt test — O(1) instead of a list scan. *)
                if is_halted state p then
                  invalid_arg "System.run: scheduler picked a halted processor";
                step_silent state p;
                count p;
                let en =
                  if is_halted state p then List.filter (( <> ) p) en else en
                in
                go (time + 1) en)
    in
    go from_time (enabled state)

  (* The flat register file behind the boxed state, if the protocol and
     instance fit the packed representation: wiring flattened into one
     int array so the machine never chases a permutation object. *)
  let flat_machine state =
    let n = processors state and m = Array.length state.registers in
    if n > Repro_util.Bits.max_width then None
    else
      let phys =
        Array.init (n * m) (fun k -> Wiring.phys state.wiring ~p:(k / m) (k mod m))
      in
      P.flat state.cfg ~phys ~inputs:state.inputs ~registers:state.registers
        ~locals:state.locals

  (* The hardware-floor fault-free loop: the enabled set is a bitmask,
     the scheduler runs its int twin, and every transition lands in the
     machine's preallocated buffers — no allocation per step.  When the
     machine refuses a transition ([Protocol.Fallback], raised before any
     mutation) we sync the boxed state, replay the refused step through
     the boxed functions on the {e already picked} processor — the
     scheduler has advanced past this pick, so re-picking would desync
     its rng — and finish on the boxed fast path. *)
  let run_flat ~machine ~mask_pick ~max_steps ~sched ?step_counts state =
    let count =
      match step_counts with
      | None -> fun _ -> ()
      | Some c -> fun p -> c.(p) <- c.(p) + 1
    in
    let mask0 = ref 0 in
    for p = processors state - 1 downto 0 do
      if not (machine.Protocol.halted p) then mask0 := !mask0 lor (1 lsl p)
    done;
    let finish reason time =
      machine.Protocol.sync ();
      (reason, time)
    in
    let rec go time mask =
      if time >= max_steps then finish Max_steps time
      else if mask = 0 then finish All_halted time
      else
        let p = mask_pick ~time ~mask in
        if p = -1 then finish Scheduler_done time
        else if mask land (1 lsl p) = 0 then
          invalid_arg "System.run: scheduler picked a halted processor"
        else
          match machine.Protocol.step p with
          | () ->
              count p;
              let mask =
                if machine.Protocol.halted p then mask land lnot (1 lsl p)
                else mask
              in
              go (time + 1) mask
          | exception Protocol.Fallback ->
              machine.Protocol.sync ();
              step_silent state p;
              count p;
              run_fast ~from_time:(time + 1) ~max_steps ~sched ?step_counts
                state
    in
    go 0 !mask0

  (* The flat faulty interpreter: [run_faulty]'s semantics step for step
     (same compiled plan views, same pop/short-circuit order, recoveries
     consume no step and may un-halt), minus the note/event plumbing —
     it only runs when there are no observers.  Restricted to [total]
     machines, so no [Fallback] can escape mid-plan. *)
  let run_faulty_flat ~machine ~mask_pick ~max_steps ~plan ?step_counts state =
    let n = processors state and m = Array.length state.registers in
    let count =
      match step_counts with
      | None -> fun _ -> ()
      | Some c -> fun p -> c.(p) <- c.(p) + 1
    in
    let crash_at = Fault.crash_stops ~n plan in
    let recoveries = ref (Fault.recoveries plan) in
    let omits = Fault.omit_arms ~n plan in
    let stales = Fault.stale_arms ~n plan in
    let stuck_at = Fault.stuck_times ~m plan in
    let pop_due arr p (time : int) =
      match arr.(p) with
      | at :: rest when at <= time ->
          arr.(p) <- rest;
          true
      | _ -> false
    in
    (* Alive processors as a shrinking mask, advanced through the crash
       times in order (mirrors [run_faulty]'s [alive]: dead at [t >= c]). *)
    let crashes = Fault.crash_order crash_at in
    let alive = ref (Repro_util.Bits.full n) and next_crash = ref 0 in
    let emask = ref 0 in
    for p = n - 1 downto 0 do
      if not (machine.Protocol.halted p) then emask := !emask lor (1 lsl p)
    done;
    let set_enabled p =
      if machine.Protocol.halted p then emask := !emask land lnot (1 lsl p)
      else emask := !emask lor (1 lsl p)
    in
    let finish reason time =
      machine.Protocol.sync ();
      (reason, time)
    in
    let rec go time =
      if time >= max_steps then finish Max_steps time
      else
        match !recoveries with
        | (at, p) :: rest when at <= time ->
            (* Restart consumes no step: amnesiac rebirth on the original
               input.  May un-halt [p]. *)
            recoveries := rest;
            machine.Protocol.reset p;
            set_enabled p;
            go time
        | _ ->
            while
              !next_crash < Array.length crashes
              && fst crashes.(!next_crash) <= time
            do
              alive := !alive land lnot (1 lsl snd crashes.(!next_crash));
              incr next_crash
            done;
            let avail = !emask land !alive in
            if avail = 0 then
              finish (if !emask = 0 then All_halted else Scheduler_done) time
            else
              let p = mask_pick ~time ~mask:avail in
              if p = -1 then finish Scheduler_done time
              else if avail land (1 lsl p) = 0 then
                invalid_arg
                  "System.run: scheduler picked an unavailable processor"
              else begin
                (let op = machine.Protocol.peek p in
                 if op land 1 = 1 then
                   (* Pending write.  Stuck-register short-circuits the
                      omission arm: the arm is {e not} consumed. *)
                   let stuck =
                     match stuck_at.(op lsr 1) with
                     | Some t -> time >= t
                     | None -> false
                   in
                   if stuck || pop_due omits p time then
                     machine.Protocol.step_omit p
                   else machine.Protocol.step p
                 else if pop_due stales p time then
                   machine.Protocol.step_stale p
                 else machine.Protocol.step p);
                count p;
                set_enabled p;
                go (time + 1)
              end
    in
    go 0

  (** Drive [state] under [sched] for at most [max_steps] steps, mutating it
      in place.  [on_event] observes each step (time is the 0-based step
      index).  Returns why the run stopped and the number of steps taken.
      [step_counts] (length [n]) is incremented at index [p] for every
      scheduler step consumed by processor [p] — including dropped writes
      under a fault plan, which produce no event.

      [faults] installs a fault plan (times are global step indices);
      [on_fault] observes what the injector did.  Without a plan the
      fault-free loop runs — the fault layer costs nothing when disabled.
      An {e empty} plan still takes the interpreting path (that is what
      the overhead benchmark measures).

      Without a plan {e and} without observers, a fast path executes the
      same transitions but skips event construction and the [last_writer]
      ghost bookkeeping entirely; after such a run [last_writer] still
      holds its initial [None]s.  The ghost state never influences
      transitions, outputs or stop reasons — it is only reported through
      events and renderings, which the fast path by definition has none
      of — so verdicts computed from a fast run agree with the observed
      path (test/test_fuzz.ml checks this differentially).

      On the observer-free paths, when the protocol provides a flat
      machine ({!Protocol.S.flat}), the instance fits a word mask and the
      scheduler has an int twin, the run executes on the flat register
      file instead — same transitions into preallocated buffers, synced
      back into [state] before returning, byte-for-byte what the boxed
      path would have produced.  [~flat:false] forces the boxed paths
      (the differential tests and the before-rows of the benchmark).
      Fault plans additionally require a [total] machine (one that never
      falls back mid-plan); otherwise the boxed interpreter runs. *)
  let run ?(max_steps = 100_000) ?faults ?step_counts ?(flat = true) ~sched
      ?on_event ?on_fault state =
    let count p =
      match step_counts with None -> () | Some c -> c.(p) <- c.(p) + 1
    in
    let flat_machine () =
      if not flat then None
      else
        match Scheduler.mask_pick sched with
        | None -> None
        | Some mask_pick ->
            Option.map (fun m -> (m, mask_pick)) (flat_machine state)
    in
    match (faults, on_event, on_fault) with
    | Some plan, None, None -> (
        match flat_machine () with
        | Some (machine, mask_pick) when machine.Protocol.total ->
            run_faulty_flat ~machine ~mask_pick ~max_steps ~plan ?step_counts
              state
        | _ ->
            run_faulty ~max_steps ~plan ~sched
              ~on_event:(fun ~time:_ ev ->
                match ev with Read_ev { p; _ } | Write_ev { p; _ } -> count p)
              ~on_fault:(fun ~time:_ nt ->
                match nt with Dropped_write { p; _ } -> count p | _ -> ())
              state)
    | Some plan, _, _ ->
        let on_fault_count ~time nt =
          (match nt with Dropped_write { p; _ } -> count p | _ -> ());
          match on_fault with Some f -> f ~time nt | None -> ()
        in
        let on_event_count ~time ev =
          (match ev with Read_ev { p; _ } | Write_ev { p; _ } -> count p);
          match on_event with Some f -> f ~time ev | None -> ()
        in
        run_faulty ~max_steps ~plan ~sched ~on_event:on_event_count
          ~on_fault:on_fault_count state
    | None, None, None -> (
        match flat_machine () with
        | Some (machine, mask_pick) ->
            run_flat ~machine ~mask_pick ~max_steps ~sched ?step_counts state
        | None -> run_fast ~max_steps ~sched ?step_counts state)
    | None, _, _ ->
        let rec go time =
          if time >= max_steps then (Max_steps, time)
          else
            match enabled state with
            | [] -> (All_halted, time)
            | en -> (
                match Scheduler.pick sched ~time ~enabled:en with
                | None -> (Scheduler_done, time)
                | Some p ->
                    if not (List.mem p en) then
                      invalid_arg "System.run: scheduler picked a halted processor";
                    let ev = step_in_place state p in
                    count p;
                    (match on_event with Some f -> f ~time ev | None -> ());
                    go (time + 1))
        in
        go 0

  let pp_event cfg ppf = function
    | Read_ev { p; local_reg; phys_reg; value; writer } ->
        Fmt.pf ppf "p%d reads r%d (own #%d) = %a%a" (p + 1) (phys_reg + 1)
          (local_reg + 1) (P.pp_value cfg) value
          (fun ppf -> function
            | None -> ()
            | Some q -> Fmt.pf ppf " [from p%d]" (q + 1))
          writer
    | Write_ev { p; local_reg; phys_reg; value; overwrote; _ } ->
        Fmt.pf ppf "p%d writes r%d (own #%d) := %a%a" (p + 1) (phys_reg + 1)
          (local_reg + 1) (P.pp_value cfg) value
          (fun ppf -> function
            | None -> ()
            | Some q -> Fmt.pf ppf " [overwrites p%d]" (q + 1))
          overwrote
end
