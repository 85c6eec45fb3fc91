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
    if n > Repro_util.Bits.max_width then
      invalid_arg
        "System.init: more processors than the scheduler's bitmask window \
         (Bits.max_width = 62)";
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

  (* Commit an event built by [event_of]: the boxed transition. *)
  let commit s p = function
    | Read_ev { local_reg; value; _ } ->
        s.locals.(p) <- P.apply_read s.cfg s.locals.(p) ~reg:local_reg value
    | Write_ev { phys_reg; value; _ } ->
        s.registers.(phys_reg) <- value;
        s.last_writer.(phys_reg) <- Some p;
        s.locals.(p) <- P.apply_write s.cfg s.locals.(p)

  (* In-place transition; callers owning [s] exclusively use this for
     speed. *)
  let step_in_place s p =
    match event_of s p with
    | None -> invalid_arg "System.step: processor has terminated"
    | Some ev ->
        commit s p ev;
        ev

  type stop_reason = All_halted | Scheduler_done | Max_steps

  (* The boxed interpreter, the reference semantics every other loop
     must reproduce.  Compiles the plan (possibly empty) into
     per-processor / per-register arrays once, then runs the scheduler
     loop with the fault semantics woven in:
     - [Crash_stop p at]: p is removed from the enabled mask at times
       >= at;
     - [Crash_recover p at]: at time at, p's local state is reset to
       [P.init cfg inputs.(p)] (consuming no step);
     - [Omit_write p at]: armed at [at], fires on p's next write — the
       register keeps its value but p's local state advances (the write
       consumes its scheduler step);
     - [Stale_read p at]: armed at [at], fires on p's next read, which
       returns the register's previous value;
     - [Stuck_register r at]: every write to physical register r at time
       >= at is dropped (local state still advances).
     The enabled set is a mask kept up to date incrementally: only the
     stepped or restarted processor's local state changes.  [from_time]
     starts the clock mid-run (the [Protocol.Fallback] continuation). *)
  let run_boxed ?(from_time = 0) ~max_steps ~plan ~sched ?step_counts
      ?on_event ?on_fault state =
    let n = processors state and m = Array.length state.registers in
    let ev time e = match on_event with Some f -> f ~time e | None -> () in
    let note time nt = match on_fault with Some f -> f ~time nt | None -> () in
    let count =
      match step_counts with
      | None -> fun _ -> ()
      | Some c -> fun p -> c.(p) <- c.(p) + 1
    in
    let recoveries = ref (Fault.recoveries plan) in
    let omits = Fault.omit_arms ~n plan in
    let stales = Fault.stale_arms ~n plan in
    let stuck_at = Fault.stuck_times ~m plan in
    let restarts = Array.make n 0 in
    (* Previous value of each physical register, for stale reads. *)
    let prev = Array.copy state.registers in
    let pop_due arr p (time : int) =
      match arr.(p) with
      | at :: rest when at <= time ->
          arr.(p) <- rest;
          true
      | _ -> false
    in
    let stuck r (time : int) =
      match stuck_at.(r) with Some t -> time >= t | None -> false
    in
    let crashes = Fault.crash_order (Fault.crash_stops ~n plan) in
    let alive = ref (Repro_util.Bits.full n) and next_crash = ref 0 in
    let emask = ref 0 in
    let set_enabled p =
      if is_halted state p then emask := !emask land lnot (1 lsl p)
      else emask := !emask lor (1 lsl p)
    in
    for p = 0 to n - 1 do
      set_enabled p
    done;
    (* The arms are popped in the guards: a stale or omission arm is
       consumed exactly when its case is taken. *)
    let step time p =
      match event_of state p with
      | None -> invalid_arg "System.step: processor has terminated"
      | Some (Read_ev { local_reg; phys_reg; value; _ })
        when pop_due stales p time ->
          let stale = prev.(phys_reg) in
          state.locals.(p) <-
            P.apply_read state.cfg state.locals.(p) ~reg:local_reg stale;
          note time
            (Stale_read_note { p; local_reg; phys_reg; stale; fresh = value });
          ev time
            (Read_ev { p; local_reg; phys_reg; value = stale; writer = None })
      | Some (Write_ev { local_reg; phys_reg; value; _ })
        when stuck phys_reg time || pop_due omits p time ->
          (* Stuck-register short-circuits the omission arm: the arm is
             {e not} consumed. *)
          state.locals.(p) <- P.apply_write state.cfg state.locals.(p);
          note time
            (Dropped_write
               { p; local_reg; phys_reg; value; stuck = stuck phys_reg time })
      | Some e ->
          (match e with
          | Write_ev { phys_reg; _ } ->
              prev.(phys_reg) <- state.registers.(phys_reg)
          | Read_ev _ -> ());
          commit state p e;
          ev time e
    in
    let rec go time =
      if time >= max_steps then (Max_steps, time)
      else
        match !recoveries with
        | (at, p) :: rest when at <= time ->
            (* Restart consumes no step: amnesiac rebirth on the original
               input.  May un-halt [p]. *)
            recoveries := rest;
            restarts.(p) <- restarts.(p) + 1;
            note time (Crash_note { p; recovering = true });
            state.locals.(p) <- P.init state.cfg state.inputs.(p);
            set_enabled p;
            note time (Restart_note { p; attempt = restarts.(p) });
            go time
        | _ -> (
            while
              !next_crash < Array.length crashes
              && fst crashes.(!next_crash) <= time
            do
              let p = snd crashes.(!next_crash) in
              alive := !alive land lnot (1 lsl p);
              incr next_crash;
              if not (is_halted state p) then
                note time (Crash_note { p; recovering = false })
            done;
            let avail = !emask land !alive in
            if avail = 0 then
              ((if !emask = 0 then All_halted else Scheduler_done), time)
            else
              match sched.Scheduler.pick ~time ~mask:avail with
              | -1 -> (Scheduler_done, time)
              | p ->
                  if p < 0 || p >= n || avail land (1 lsl p) = 0 then
                    invalid_arg
                      "System.run: scheduler picked an unavailable processor";
                  count p;
                  step time p;
                  set_enabled p;
                  go (time + 1))
    in
    go from_time

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
     the scheduler picks from it, and every transition lands in the
     machine's preallocated buffers — no allocation per step.  When the
     machine refuses a transition ([Protocol.Fallback], raised before any
     mutation) we sync the boxed state, replay the refused step through
     the boxed functions on the {e already picked} processor — the
     scheduler has advanced past this pick, so re-picking would desync
     its rng — and finish on the boxed interpreter. *)
  let run_flat ~machine ~max_steps ~sched ?step_counts state =
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
        let p = sched.Scheduler.pick ~time ~mask in
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
              ignore (step_in_place state p);
              count p;
              run_boxed ~from_time:(time + 1) ~max_steps ~plan:[] ~sched
                ?step_counts state
    in
    go 0 !mask0

  (* The flat faulty interpreter: [run_boxed]'s semantics step for step
     (same compiled plan views, same pop/short-circuit order, recoveries
     consume no step and may un-halt), minus the note/event plumbing —
     it only runs when there are no observers.  Restricted to [total]
     machines, so no [Fallback] can escape mid-plan. *)
  let run_faulty_flat ~machine ~max_steps ~plan ~sched ?step_counts state =
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
       times in order (mirrors [run_boxed]'s [alive]: dead at [t >= c]). *)
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
              let p = sched.Scheduler.pick ~time ~mask:avail in
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
      [on_fault] observes what the injector did.

      Observed runs execute on the boxed interpreter.  Observer-free runs
      execute on the flat register file when the protocol provides a flat
      machine ({!Protocol.S.flat}) and the instance fits it: the same
      transitions into preallocated buffers, synced back into [state]
      before returning, byte-for-byte what the boxed interpreter would
      have produced, except for [last_writer] (ghost state reported only
      through events), which the flat loops do not maintain.  A fault plan
      additionally requires a [total] machine (one that never falls back
      mid-plan).  [~flat:false] forces the boxed interpreter: the
      reference the differential tests compare against. *)
  let run ?(max_steps = 100_000) ?faults ?step_counts ?(flat = true) ~sched
      ?on_event ?on_fault state =
    let observed = Option.is_some on_event || Option.is_some on_fault in
    let machine =
      if flat && not observed then flat_machine state else None
    in
    match (machine, faults) with
    | Some machine, None ->
        run_flat ~machine ~max_steps ~sched ?step_counts state
    | Some machine, Some plan when machine.Protocol.total ->
        run_faulty_flat ~machine ~max_steps ~plan ~sched ?step_counts state
    | _ ->
        run_boxed ~max_steps
          ~plan:(Option.value faults ~default:[])
          ~sched ?step_counts ?on_event ?on_fault state

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
