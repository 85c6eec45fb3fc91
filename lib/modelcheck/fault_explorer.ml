(** Bounded-fault exploration: exhaustive safety checking under at most
    [k] injected crash-stops.

    The fault-free checker ({!Explorer}) quantifies over schedules only;
    this module additionally quantifies over {e when and whom} crash-stop
    faults hit.  A crash-stop is time-abstract here: instead of fixing
    fault times as the simulator's {!Anonmem.Fault.plan} does, the search
    branches on "processor [p] crashes {e now}" at every reachable state,
    which covers every timed plan with at most [k] crashes (and more — a
    crash between any two global steps, under any schedule).  A safety
    certificate from this search therefore subsumes every seeded
    crash-stop campaign of the fuzzer at the same sizes.

    States are pairs of a core protocol state and a crashed-set bitmask.
    The crash budget is not part of the key: it is determined by the mask
    ([budget = max_crashes - popcount mask]), so two paths reaching the
    same core state with the same crashed set are genuinely the same
    search node.  Crashing an already-halted processor is skipped — it
    removes no enabled steps, so the successor state is behaviourally
    identical and would only pad the space.

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

  let popcount mask =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go mask 0

  (* Parent encoding: (parent_id lsl 5) lor (crash_bit lsl 4) lor pid.
     Explorer packs pids in 4 bits; the extra bit distinguishes crash
     edges from protocol steps.  The crash mask occupies one key byte, so
     at most 8 processors are supported (structured rejection beyond). *)
  let explore ?(max_states = 50_000_000) ?(max_crashes = 1)
      ?(reduction = false) ?governor ?ckpt ?(resume = false) ~invariant ~cfg
      ~wiring ~inputs () =
    let n = P.processors cfg in
    Explorer.guard_processors ~engine:"Fault_explorer.explore" ~limit:8 n;
    if max_crashes < 0 then invalid_arg "Fault_explorer.explore: max_crashes";
    let canon = E.symmetry ~reduction ~cfg ~wiring ~inputs in
    (* Encoded in full rather than patched by [E.successor_key]: the key
       carries the crash-mask byte after the state, and crash branches
       reuse the parent state under a new mask. *)
    let raw_key st mask =
      E.encode_state cfg st ^ String.make 1 (Char.chr mask)
    in
    let key_of st mask =
      let raw = raw_key st mask in
      (* Crash masks canonicalize with their processors: the automorphism
         permuting the local-state slices permutes the mask bits too, so a
         crashed processor's identity follows its slice into the orbit
         minimum. *)
      match canon with
      | Some c -> Canon.canonicalize_masked c raw
      | None -> raw
    in
    let init = E.init_state ~cfg ~inputs in
    let key0 = key_of init 0 in
    let context =
      Fmt.str "fault|%d|%d|%a|%b|%S"
        (E.key_width cfg + 1)
        max_crashes Anonmem.Wiring.pp wiring reduction
        key0
    in
    let resumed =
      match ckpt with
      | Some { Checkpoint.path; _ } when resume && Sys.file_exists path ->
          let sections = Checkpoint.load ~path in
          let ctx = Bytes.to_string (Checkpoint.find "context" sections) in
          if not (String.equal ctx context) then
            raise
              (Checkpoint.Corrupt_checkpoint
                 "Fault_explorer.explore: checkpoint context mismatch");
          Some sections
      | _ -> None
    in
    (* Keys are the core encoded state plus one crash-mask byte; packed
       parent words plus one, so the root's -1 packs to 0. *)
    let table, parent =
      match resumed with
      | Some sections ->
          ( State_table.deserialize (Checkpoint.find "table" sections),
            State_table.Packed_vec.deserialize
              (Checkpoint.find "parent" sections) )
      | None ->
          ( State_table.create ~log2_slots:16 ~key_width:(E.key_width cfg + 1)
              (),
            State_table.Packed_vec.create ~stride:5 () )
    in
    let violation = ref None in
    let transitions = ref 0 and crash_branches = ref 0 and pops = ref 0 in
    (match resumed with
    | Some sections ->
        let counters =
          Checkpoint.ints_of_bytes (Checkpoint.find "counters" sections)
        in
        if Array.length counters <> 3 then
          raise
            (Checkpoint.Corrupt_checkpoint
               "Fault_explorer.explore: counter section of wrong length");
        pops := counters.(0);
        transitions := counters.(1);
        crash_branches := counters.(2)
    | None -> ());
    let save_ckpt path =
      Checkpoint.save ~path
        [
          ("context", Bytes.of_string context);
          ("table", State_table.serialize table);
          ("parent", State_table.Packed_vec.serialize parent);
          ( "counters",
            Checkpoint.bytes_of_ints [| !pops; !transitions; !crash_branches |]
          );
        ]
    in
    let queue = Queue.create () in
    (* The BFS pops ids in ascending order, so the resumed frontier is
       the ids discovered but not yet popped: [pops, table length). *)
    if resumed <> None then
      for id = !pops to State_table.length table - 1 do
        Queue.add id queue
      done;
    let decode key =
      let core = String.sub key 0 (String.length key - 1) in
      let mask = Char.code key.[String.length key - 1] in
      (E.decode_state cfg core, mask)
    in
    (* [key] is [key_of st mask]. *)
    let add_state st key ~from =
      let before = State_table.length table in
      let id = State_table.intern table key in
      if id = before then begin
        (* fresh (core state, crashed set) pair *)
        ignore (State_table.Packed_vec.push parent (from + 1));
        (let st = if canon = None then st else fst (decode key) in
         match invariant st with
         | Ok () -> ()
         | Error message ->
             if !violation = None then violation := Some (id, message));
        Queue.add id queue
      end;
      id
    in
    let parent_packed id = State_table.Packed_vec.get parent id - 1 in
    let steps_to id =
      let rec up id acc =
        let packed = parent_packed id in
        if packed < 0 then acc
        else
          let from = packed asr 5 in
          let step =
            if packed land 16 <> 0 then Crash (packed land 15)
            else Step (packed land 15)
          in
          up from (step :: acc)
      in
      up id []
    in
    let keys_to id =
      let rec up id acc =
        let packed = parent_packed id in
        if packed < 0 then acc
        else up (packed asr 5) (State_table.key_of_id table id :: acc)
      in
      up id []
    in
    (* Replay a chain of canonical (state, mask) keys into a concrete
       witness: at each key pick a live processor whose protocol step or
       crash reproduces that orbit minimum (cf. Explorer.concretize). *)
    let concretize_masked c chain =
      let rec go st mask acc = function
        | [] -> (List.rev acc, st, mask)
        | key :: rest ->
            let live =
              List.filter (fun p -> mask land (1 lsl p) = 0) (E.enabled cfg st)
            in
            let candidates =
              List.concat_map
                (fun p ->
                  [
                    (Step p, E.successor cfg wiring st p, mask);
                    (Crash p, st, mask lor (1 lsl p));
                  ])
                live
            in
            let rec pick = function
              | [] ->
                  invalid_arg
                    "Fault_explorer: canonical witness has no concrete \
                     refinement"
              | (step, st', mask') :: tl ->
                  if
                    String.equal
                      (Canon.canonicalize_masked c (raw_key st' mask'))
                      key
                  then (step, st', mask')
                  else pick tl
            in
            let step, st', mask' = pick candidates in
            go st' mask' (step :: acc) rest
      in
      go (E.init_state ~cfg ~inputs) 0 [] chain
    in
    if resumed = None then
      ignore (add_state init key0 ~from:(-1));
    let limit_hit = ref false in
    let exhausted = ref None in
    while
      (not (Queue.is_empty queue))
      && !violation = None && (not !limit_hit) && !exhausted = None
    do
      (match ckpt with
      | Some { Checkpoint.path; every_states }
        when every_states > 0 && !pops > 0 && !pops mod every_states = 0 ->
          save_ckpt path
      | _ -> ());
      (match governor with
      | Some g -> (
          match Governor.tick g with
          | Some reason ->
              exhausted := Some reason;
              (match ckpt with
              | Some { Checkpoint.path; _ } -> save_ckpt path
              | None -> ())
          | None -> ())
      | None -> ());
      if !exhausted = None then begin
      let id = Queue.pop queue in
      let st, mask = decode (State_table.key_of_id table id) in
      let live =
        List.filter (fun p -> mask land (1 lsl p) = 0) (E.enabled cfg st)
      in
      let budget = max_crashes - popcount mask in
      let expand_one ~crash p =
        incr transitions;
        let st', mask' =
          if crash then begin
            incr crash_branches;
            (st, mask lor (1 lsl p))
          end
          else (E.successor cfg wiring st p, mask)
        in
        let key = key_of st' mask' in
        (* Only a state beyond the bound trips the limit. *)
        if
          State_table.length table >= max_states
          && not (State_table.mem table key)
        then limit_hit := true
        else
          let tag = (id lsl 5) lor (if crash then 16 else 0) lor p in
          ignore (add_state st' key ~from:tag)
      in
      List.iter (expand_one ~crash:false) live;
      (* Crash branches: only live (enabled, uncrashed) processors — a
         crash of a halted processor changes nothing observable. *)
      if budget > 0 then List.iter (expand_one ~crash:true) live;
      incr pops
      end
    done;
    if !exhausted <> None then
      Exhausted
        {
          reason = Option.get !exhausted;
          states = State_table.length table;
        }
    else if !limit_hit then State_limit (State_table.length table)
    else
      match !violation with
      | Some (id, message) -> (
          match canon with
          | None ->
              let st, mask = decode (State_table.key_of_id table id) in
              Invariant_failed
                { message; state = st; crashed = mask; steps = steps_to id }
          | Some c ->
              let steps, st, mask = concretize_masked c (keys_to id) in
              Invariant_failed { message; state = st; crashed = mask; steps })
      | None ->
          Safe
            {
              states = State_table.length table;
              transitions = !transitions;
              crash_branches = !crash_branches;
            }

  type summary = {
    wirings_checked : int;
    total_states : int;
    total_transitions : int;
    total_crash_branches : int;
  }

  (** Check the invariant across every wiring (processor 0 pinned to the
      identity — lossless by register anonymity) for one input
      assignment, under at most [max_crashes] crash-stops injected at
      arbitrary points. *)
  let check_all_wirings ?max_states ?max_crashes ?(reduction = false) ?wirings
      ?governor ~invariant ~cfg ~inputs () =
    let n = P.processors cfg in
    Wiring_sweep.run ?wirings ~n ~m:(P.registers cfg)
      ~init:
        {
          wirings_checked = 0;
          total_states = 0;
          total_transitions = 0;
          total_crash_branches = 0;
        }
      (fun ~resume:_ ~ckpt_extra:_ wiring summary ->
        match
          explore ?max_states ?max_crashes ~reduction ?governor ~invariant ~cfg
            ~wiring ~inputs ()
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
