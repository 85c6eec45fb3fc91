(** Explicit-state model checker for fully-anonymous protocols — the
    stand-in for the TLC runs reported in the paper (Figure 3 and the
    claims of Sections 5.2 and 8).

    For a fixed configuration, wiring and input assignment, the checker
    enumerates by breadth-first search every state reachable under every
    interleaving of processor steps (the scheduler's nondeterminism is the
    only nondeterminism: protocols are deterministic step machines).  It
    checks a state invariant as states are discovered, reconstructs
    counterexample traces from BFS parents, and decides wait-freedom as a
    graph property:

    a processor [p] can take infinitely many steps without terminating iff
    the finite transition graph contains a cycle traversing a [p]-labelled
    edge — equivalently, an edge [u --p--> v] with [u] and [v] in the same
    strongly connected component.  (In our protocols a processor that has
    output takes no further steps, so a [p]-edge inside an SCC is exactly a
    divergence of a never-terminating [p].)

    The state spaces reach tens of millions of states for 3 processors, so
    states are stored only as compact byte strings: checkable protocols
    supply fixed-width codecs ({!CHECKABLE}, instances in {!Codecs}), the
    visited set is an arena-backed open-addressing table ({!State_table})
    holding the key bytes inline with dense insertion-order ids, successor
    edges are five-byte packed words grouped by source (a CSR image built
    on the fly, since BFS pops states in id order), and the SCC pass reads
    that image in place.  To cover
    {e all} executions of the anonymous model the caller iterates
    exploration over {!Anonmem.Wiring.enumerate} (with register-symmetry
    reduction) and the relevant input assignments; see
    {!Make.check_all_wirings}.

    Two scaling levers sit on top of the sequential passes: the opt-in
    [~reduction] flag quotients the space by the wiring's anonymity
    symmetries ({!Canon}; sound because canonical keys are orbit minima
    under genuine automorphisms, see DESIGN.md; a group holding only the
    identity, as with distinct inputs, is explored unreduced), and the
    fingerprint BFS ({!Make.explore_fp}) caps the visited set's RAM.  The
    intra-space parallel engines lose to these passes on two cores
    (EXPERIMENTS X6); no production path runs them.  Under reduction,
    invariants and [stop_expansion] predicates must themselves
    be symmetric — invariant under permuting same-input processors
    together with the induced register relabelling — which holds for
    every property shipped here (containment, agreement, memory-content
    sets, timestamp bounds).  The crash search ([~max_crashes]) runs
    unreduced.

    One question, one path: the DFS ({!Make.check_exhaustive}) and the
    fingerprint BFS decide, and a minimal-length counterexample comes
    from the exact BFS's parent links ({!Make.trace_to}), re-run on the
    offending wiring when another engine found the violation; a
    liveness verdict and its lasso come from one SCC pass
    ({!Make.fair_lasso}). *)

(** A protocol whose states can be exhaustively explored: local states and
    register values serialize to fixed-width byte strings.  Codecs must be
    exact inverses; widths may depend on the configuration. *)
module type CHECKABLE = sig
  include Anonmem.Protocol.S

  val value_width : cfg -> int
  val encode_value : cfg -> value -> Bytes.t -> int -> unit
  val decode_value : cfg -> Bytes.t -> int -> value
  val local_width : cfg -> int
  val encode_local : cfg -> local -> Bytes.t -> int -> unit
  val decode_local : cfg -> Bytes.t -> int -> local
end

(* BFS successor edges are packed as (dst lsl 4) lor pid in five-byte
   arena words grouped by source ({!Make.space}); parent links pack
   (parent lsl 4) lor pid the same way.  Dense state ids stay well below
   2^31 and processor counts below 16 in any feasible exploration.  A
   crash-stop of processor p is the pid n + p ({!Make.explore}'s
   [max_crashes]), which fits the 4 bits while n <= 8. *)
let max_processors = 16

exception
  Unsupported_processors of { engine : string; processors : int; limit : int }
(** Structured rejection of configurations whose processor count would
    silently corrupt the packed edge/parent encodings (pids occupy 4 bits;
    a crash search additionally packs the crash mask in one key byte and
    crash pids as [n + p], so its limit is 8).  Raised eagerly by every
    exploration entry point. *)

let () =
  Printexc.register_printer (function
    | Unsupported_processors { engine; processors; limit } ->
        Some
          (Printf.sprintf
             "%s: %d processors exceed the supported maximum of %d (packed \
              pid/crash-mask encoding)"
             engine processors limit)
    | _ -> None)

let guard_processors ~engine ?(limit = max_processors - 1) n =
  if n > limit then raise (Unsupported_processors { engine; processors = n; limit })

type summary = {
  wirings_checked : int;
  total_states : int;
  max_space_states : int;
  total_transitions : int;
  terminal_states : int;
  all_wait_free : bool;
}
(** Aggregate of a [check_all_wirings] sweep.  Defined outside the functor
    so callers name one summary type whatever protocol was checked. *)

let empty_summary =
  {
    wirings_checked = 0;
    total_states = 0;
    max_space_states = 0;
    total_transitions = 0;
    terminal_states = 0;
    all_wait_free = true;
  }

type fp_summary = {
  fp_wirings : int;
  fp_total_states : int;
  fp_max_space_states : int;
  fp_total_transitions : int;
  fp_terminal_states : int;
  fp_omission_bound : float;
      (** union bound over the per-wiring birthday bounds: the probability
          that {e any} state anywhere in the sweep was omitted by a 64-bit
          fingerprint collision *)
  fp_spilled_runs : int;
  fp_spill_bytes : int;
}
(** Aggregate of a {!Make.check_all_wirings_fp} sweep.  The fingerprint
    engine stores no edges, so — unlike {!summary} — there is no
    wait-freedom verdict: it is a safety-only engine whose answer is
    qualified by [fp_omission_bound]. *)

let empty_fp_summary =
  {
    fp_wirings = 0;
    fp_total_states = 0;
    fp_max_space_states = 0;
    fp_total_transitions = 0;
    fp_terminal_states = 0;
    fp_omission_bound = 0.0;
    fp_spilled_runs = 0;
    fp_spill_bytes = 0;
  }

(* The per-wiring error strings every sweep over wirings reports. *)
let exhausted_error reason states =
  Fmt.str "exhausted (%a) at %d states" Governor.pp_reason reason states

let invariant_error wiring message =
  Fmt.str "invariant violated under wiring %a: %s" Anonmem.Wiring.pp wiring
    message

(** Sweep positions for multi-wiring checkpoints ({!Wiring_sweep}): the
    summary accumulated over the wirings before the one in flight. *)
let sweep_section =
  {
    Wiring_sweep.name = "sweep";
    to_ints =
      (fun s ->
        [|
          s.wirings_checked;
          s.total_states;
          s.max_space_states;
          s.total_transitions;
          s.terminal_states;
          (if s.all_wait_free then 1 else 0);
        |]);
    of_ints =
      (fun a ->
        {
          wirings_checked = a.(0);
          total_states = a.(1);
          max_space_states = a.(2);
          total_transitions = a.(3);
          terminal_states = a.(4);
          all_wait_free = a.(5) = 1;
        });
  }

(* The float bound travels as the two 32-bit halves of its IEEE-754
   image (the int sections are 63-bit-safe, a raw bits_of_float is
   not). *)
let fp_sweep_section =
  {
    Wiring_sweep.name = "fp_sweep";
    to_ints =
      (fun s ->
        let bits = Int64.bits_of_float s.fp_omission_bound in
        [|
          s.fp_wirings;
          s.fp_total_states;
          s.fp_max_space_states;
          s.fp_total_transitions;
          s.fp_terminal_states;
          s.fp_spilled_runs;
          s.fp_spill_bytes;
          Int64.to_int (Int64.logand bits 0xffffffffL);
          Int64.to_int (Int64.shift_right_logical bits 32);
        |]);
    of_ints =
      (fun a ->
        {
          fp_wirings = a.(0);
          fp_total_states = a.(1);
          fp_max_space_states = a.(2);
          fp_total_transitions = a.(3);
          fp_terminal_states = a.(4);
          fp_spilled_runs = a.(5);
          fp_spill_bytes = a.(6);
          fp_omission_bound =
            Int64.float_of_bits
              (Int64.logor (Int64.of_int a.(7))
                 (Int64.shift_left (Int64.of_int a.(8)) 32));
        });
  }

module Make (P : CHECKABLE) = struct
  type state = { locals : P.local array; registers : P.value array }

  let init_state ~cfg ~inputs =
    {
      locals = Array.map (P.init cfg) inputs;
      registers = Array.make (P.registers cfg) (P.register_init cfg);
    }

  let encode_state cfg st =
    let n = Array.length st.locals and m = Array.length st.registers in
    let lw = P.local_width cfg and vw = P.value_width cfg in
    let b = Bytes.create ((n * lw) + (m * vw)) in
    Array.iteri (fun p l -> P.encode_local cfg l b (p * lw)) st.locals;
    Array.iteri
      (fun r v -> P.encode_value cfg v b ((n * lw) + (r * vw)))
      st.registers;
    Bytes.unsafe_to_string b

  (** [decode_state] of the key at byte [off] of [b]. *)
  let decode_at cfg b off =
    let n = P.processors cfg and m = P.registers cfg in
    let lw = P.local_width cfg and vw = P.value_width cfg in
    {
      locals = Array.init n (fun p -> P.decode_local cfg b (off + (p * lw)));
      registers =
        Array.init m (fun r ->
            P.decode_value cfg b (off + (n * lw) + (r * vw)));
    }

  let decode_state cfg key = decode_at cfg (Bytes.unsafe_of_string key) 0

  let enabled cfg st =
    List.filter
      (fun p -> P.next cfg st.locals.(p) <> None)
      (List.init (Array.length st.locals) Fun.id)

  (** Successor of [st] when processor [p] takes [action], the step
      [P.next cfg st.locals.(p)] returned — for a loop that has already
      asked whether [p] is enabled.  Only [p]'s local and, on a write, the
      one written register are new; every other component is shared with
      [st], and a read step shares [st]'s registers array itself
      ({!successor_into} relies on this). *)
  let successor_by cfg wiring st p action =
    match action with
    | Anonmem.Protocol.Read i ->
        let r = Anonmem.Wiring.phys wiring ~p i in
        let locals = Array.copy st.locals in
        locals.(p) <- P.apply_read cfg st.locals.(p) ~reg:i st.registers.(r);
        { st with locals }
    | Anonmem.Protocol.Write (i, v) ->
        let r = Anonmem.Wiring.phys wiring ~p i in
        let locals = Array.copy st.locals in
        let registers = Array.copy st.registers in
        locals.(p) <- P.apply_write cfg st.locals.(p);
        registers.(r) <- v;
        { locals; registers }

  (** Successor of [st] when processor [p] takes its pending step. *)
  let successor cfg wiring st p =
    match P.next cfg st.locals.(p) with
    | None -> invalid_arg "Explorer.successor: processor halted"
    | Some action -> successor_by cfg wiring st p action

  (** [successor_by], with the successor's key left in [buf], for the
      parent key [encode_state cfg st] found at byte [off] of [src]: the
      parent's key is copied into [buf] (whatever [buf] held before) and
      only the components the step changed are re-encoded — local [p],
      and any register not physically equal to the parent's (none on a
      read, one on a write).  A physically equal component encodes to the
      bytes already in place, so [buf] ends up holding
      [encode_state cfg st'] exactly.  [buf] must be one key long. *)
  let successor_into cfg wiring st src off p action buf =
    let st' = successor_by cfg wiring st p action in
    Bytes.blit src off buf 0 (Bytes.length buf);
    let lw = P.local_width cfg in
    P.encode_local cfg st'.locals.(p) buf (p * lw);
    if st'.registers != st.registers then begin
      let base = Array.length st.locals * lw and vw = P.value_width cfg in
      for r = 0 to Array.length st'.registers - 1 do
        let v = st'.registers.(r) in
        if v != st.registers.(r) then P.encode_value cfg v buf (base + (r * vw))
      done
    end;
    st'

  (** [successor] paired with its key, for [key = encode_state cfg st]:
      {!successor_into} on a fresh buffer. *)
  let successor_key cfg wiring st key p =
    match P.next cfg st.locals.(p) with
    | None -> invalid_arg "Explorer.successor_key: processor halted"
    | Some action ->
        let buf = Bytes.create (String.length key) in
        let st' =
          successor_into cfg wiring st (Bytes.unsafe_of_string key) 0 p action
            buf
        in
        (st', Bytes.unsafe_to_string buf)

  let outputs cfg st = Array.map (P.output cfg) st.locals

  (** The symmetry group of [(cfg, wiring, inputs)]: processors in the same
      input class permute together with the induced register relabelling.
      The [~reduction] flags below build this, through {!symmetry}. *)
  let canon_of ~cfg ~wiring ~inputs =
    Canon.make
      ~local_width:(P.local_width cfg)
      ~value_width:(P.value_width cfg)
      ~wiring
      ~classes:(Anonmem.Wiring.classes_of_inputs inputs)

  (** The group the [~reduction] flags below explore by: [canon_of]'s
      group when [reduction] is set, unless it holds only the identity —
      as it does whenever the inputs are distinct — in which case the
      quotient is the space itself, and it is explored unreduced: same
      states, edges, verdicts and traces, without canonicalizing every
      successor.  Checkpoint contexts still record the requested flag. *)
  let symmetry ~reduction ~cfg ~wiring ~inputs =
    if not reduction then None
    else
      let c = canon_of ~cfg ~wiring ~inputs in
      if Canon.is_trivial c then None else Some c

  (** Width of the encoded-state keys for [cfg]. *)
  let key_width cfg =
    (P.processors cfg * P.local_width cfg)
    + (P.registers cfg * P.value_width cfg)

  (** Replay a chain of {e canonical} keys into a concrete execution: from
      [init_state], at each key pick an enabled processor whose successor
      canonicalizes to that key.  Any such choice is a valid concrete step
      (two choices hitting the same orbit are symmetric), so traces of
      reduced explorations stay replayable counterexamples.  Keys are
      plain state images: the crash search runs unreduced, so its traces
      come straight from parent links. *)
  let concretize ~cfg ~wiring ~canon ~inputs keys =
    let n = P.processors cfg in
    let rec go st acc = function
      | [] -> List.rev acc
      | key :: rest ->
          let rec pick p =
            if p >= n then
              invalid_arg
                "Explorer.concretize: canonical key chain has no concrete \
                 refinement (asymmetric invariant?)"
            else if P.next cfg st.locals.(p) = None then pick (p + 1)
            else
              let st' = successor cfg wiring st p in
              let key' = Canon.canonicalize canon (encode_state cfg st') in
              if String.equal key' key then (p, st') else pick (p + 1)
          in
          let p, st' = pick 0 in
          go st' ((p, st') :: acc) rest
    in
    go (init_state ~cfg ~inputs) [] keys

  type space = {
    cfg : P.cfg;
    wiring : Anonmem.Wiring.t;
    inputs : P.input array;
    reduction : Canon.t option;
        (** present iff the space is a quotient by a nontrivial group
            ({!symmetry}): keys are orbit minima and traces are
            concretized on demand *)
    table : State_table.t;
        (** arena of encoded states; dense id = discovery order, id 0 is
            the initial state.  A crash search's keys end in the crash
            mask, and its pids [n + p] are crash-stops ({!explore}). *)
    parent : State_table.Packed_vec.t;
        (** id -> ((parent_id lsl 4) lor pid) + 1; 0 at the root *)
    succ : State_table.Packed_vec.t;
        (** (dst lsl 4) lor pid, grouped by source in id order — BFS pops
            ids in ascending order, so edge emission is already a CSR
            adjacency image; [deg] delimits the per-source runs *)
    deg : State_table.Packed_vec.t;  (** id -> out-degree (expanded ids) *)
    terminal : int list;  (** ids of states where all processors halted *)
  }

  let state_count space = State_table.length space.table
  let transition_count space = State_table.Packed_vec.length space.succ

  (** How many of the transitions are crash-stops (pid [n + p]). *)
  let crash_transitions space =
    let n = P.processors space.cfg in
    let count = ref 0 in
    for i = 0 to transition_count space - 1 do
      if State_table.Packed_vec.get space.succ i land 15 >= n then incr count
    done;
    !count

  let state_of space id =
    decode_state space.cfg (State_table.key_of_id space.table id)

  type violation = {
    state_id : int;
    message : string;
    trace : (int * state) list;
        (** steps [(pid, post-state)] from the initial state to the
            violating state; concretized when the space is reduced.  A
            pid [n + p] is processor [p]'s crash-stop. *)
  }

  type result =
    | Explored of space
    | Invariant_failed of space * violation
    | Exhausted of { reason : Governor.reason; states : int }
        (** a resource governor tripped; a final checkpoint was written
            when a checkpoint policy was in force, so the run is
            resumable *)

  (* Parent words store the packed value plus one so the root's -1 becomes
     0, the natural zero of the unsigned packed representation. *)
  let parent_packed space id = State_table.Packed_vec.get space.parent id - 1

  let trace_to space id =
    match space.reduction with
    | None ->
        let rec up id acc =
          let packed = parent_packed space id in
          if packed < 0 then acc
          else
            let parent = packed asr 4 and pid = packed land 15 in
            up parent ((pid, state_of space id) :: acc)
        in
        up id []
    | Some canon ->
        let rec up id acc =
          let packed = parent_packed space id in
          if packed < 0 then acc
          else up (packed asr 4) (State_table.key_of_id space.table id :: acc)
        in
        concretize ~cfg:space.cfg ~wiring:space.wiring ~canon
          ~inputs:space.inputs (up id [])

  (** Breadth-first exploration.  [invariant] is checked on every state as
      it is discovered; the first failure aborts with a minimal-length
      counterexample trace.  [stop_expansion] (default: never) marks states
      whose successors should not be explored — used to bound protocols
      with unbounded state.
      [reduction] explores the symmetry quotient instead (visited keys are
      canonical orbit minima); invariant and [stop_expansion] must then be
      symmetric predicates.  The identity group quotients nothing, so
      there [reduction] explores the space unreduced ({!symmetry}).

      [max_crashes] (default 0) adds time-abstract crash-stops: at every
      state, after its protocol steps, each live (enabled, not crashed)
      processor [p] may crash-stop while fewer than [max_crashes] have,
      which covers every timed crash plan with at most [max_crashes]
      crashes.  A crashed processor takes no further step.  Keys then end
      in the crashed set as one mask byte, which {!successor_into} copies
      with the rest of the parent key (the remaining budget follows from
      its popcount).  A crash move is the pid [n + p].  The crash search
      runs unreduced: [~reduction:true] with [max_crashes > 0] raises
      [Invalid_argument].

      [ckpt_extra] sections ride in every checkpoint written (a sweep
      driver stores its position there, {!Wiring_sweep}). *)
  let explore ?invariant ?stop_expansion ?(reduction = false)
      ?(max_crashes = 0) ?governor ?ckpt ?(resume = false) ?(ckpt_extra = [])
      ~cfg ~wiring ~inputs () =
    let n = P.processors cfg in
    if max_crashes < 0 then invalid_arg "Explorer.explore: max_crashes";
    let crashes = max_crashes > 0 in
    if crashes && reduction then
      invalid_arg "Explorer.explore: the crash search runs unreduced";
    guard_processors ~engine:"Explorer.explore"
      ?limit:(if crashes then Some 8 else None)
      n;
    let canon = symmetry ~reduction ~cfg ~wiring ~inputs in
    let canonical key =
      match canon with Some c -> Canon.canonicalize c key | None -> key
    in
    let kw = key_width cfg + if crashes then 1 else 0 in
    (* Fingerprint of everything the checkpoint's meaning depends on: the
       canonical initial key pins cfg and inputs, the wiring string pins
       the step relation, the trailing field the crash budget.  A
       mismatched resume is a structured error, not a silently wrong
       exploration. *)
    let init = init_state ~cfg ~inputs in
    let key0 =
      let key = encode_state cfg init in
      canonical (if crashes then key ^ "\000" else key)
    in
    let context =
      Fmt.str "bfs|%d|%a|%b|%S%s" kw Anonmem.Wiring.pp wiring reduction key0
        (if crashes then Printf.sprintf "|crashes %d" max_crashes else "")
    in
    let resumed =
      Checkpoint.resumable ~who:"Explorer.explore" ~context ~resume ckpt
    in
    let table, parent, succ, deg, terminal =
      match resumed with
      | Some sections ->
          ( State_table.deserialize (Checkpoint.find "table" sections),
            State_table.Packed_vec.deserialize
              (Checkpoint.find "parent" sections),
            State_table.Packed_vec.deserialize (Checkpoint.find "succ" sections),
            State_table.Packed_vec.deserialize (Checkpoint.find "deg" sections),
            ref
              (Array.to_list
                 (Checkpoint.ints_of_bytes (Checkpoint.find "terminal" sections)))
          )
      | None ->
          ( State_table.create ~log2_slots:16 ~key_width:kw (),
            State_table.Packed_vec.create ~stride:5 (),
            State_table.Packed_vec.create ~stride:5 (),
            State_table.Packed_vec.create ~stride:1 (),
            ref [] )
    in
    let save_ckpt path =
      Checkpoint.save ~path
        ([
           ("context", Bytes.of_string context);
           ("table", State_table.serialize table);
           ("parent", State_table.Packed_vec.serialize parent);
           ("succ", State_table.Packed_vec.serialize succ);
           ("deg", State_table.Packed_vec.serialize deg);
           ("terminal", Checkpoint.bytes_of_ints (Array.of_list !terminal));
         ]
        @ ckpt_extra)
    in
    let durable = Checkpoint.run ?governor ckpt save_ckpt in
    let queue = Queue.create () in
    let buf = Bytes.create kw in
    (* BFS pops ids in ascending order, so the frontier is exactly the
       ids discovered but not yet popped: [deg length, table length). *)
    if resumed <> None then
      for id = State_table.Packed_vec.length deg to State_table.length table - 1
      do
        Queue.add id queue
      done;
    let violation = ref None in
    (* Bookkeeping for [id], just minted for the concrete state [st];
       under reduction the invariant sees the decoded canonical [key]
       instead, which is read only then. *)
    let admit id st key ~from =
      ignore (State_table.Packed_vec.push parent (from + 1));
      (match invariant with
      | Some check -> (
          (* check the representative: symmetric invariants have the
             same verdict on every member of the orbit *)
          let st = if canon = None then st else decode_state cfg key in
          match check st with
          | Ok () -> ()
          | Error message ->
              if !violation = None then violation := Some (id, message))
      | None -> ());
      Queue.add id queue
    in
    if resumed = None then begin
      ignore (State_table.intern table key0);
      admit 0 init key0 ~from:(-1)
    end;
    (* The move of [pid] from [id] to the successor key in [buf], whose
       concrete state is [st'].  The unreduced key is probed straight from
       [buf]; a string is built only under reduction. *)
    let move id pid st' =
      let from = (id lsl 4) lor pid in
      let before = State_table.length table in
      let id' =
        match canon with
        | None ->
            let id' = State_table.intern_bytes table buf in
            if id' = before then admit id' st' "" ~from;
            id'
        | Some c ->
            let key' = Canon.canonicalize c (Bytes.to_string buf) in
            let id' = State_table.intern table key' in
            if id' = before then admit id' st' key' ~from;
            id'
      in
      ignore (State_table.Packed_vec.push succ ((id' lsl 4) lor pid))
    in
    let exhausted = ref None in
    while
      (not (Queue.is_empty queue)) && !violation = None && !exhausted = None
    do
      (* Loop top is the consistent point: the previous pop's edges and
         degree row are complete, the frontier is [deg length, count). *)
      exhausted := Checkpoint.tick durable;
      if !exhausted = None then begin
      let id = Queue.pop queue in
      let key = State_table.key_of_id table id in
      let st = decode_state cfg key in
      let crashed = if crashes then Char.code key.[kw - 1] else 0 in
      let expand =
        match stop_expansion with Some f -> not (f st) | None -> true
      in
      let edges_before = State_table.Packed_vec.length succ in
      if expand then begin
        let live = ref 0 in
        for p = 0 to n - 1 do
          if crashed land (1 lsl p) = 0 then
            match P.next cfg st.locals.(p) with
            | None -> ()
            | Some action ->
                live := !live lor (1 lsl p);
                move id p
                  (successor_into cfg wiring st (Bytes.unsafe_of_string key) 0
                     p action buf)
        done;
        (* Then the crash moves: the parent state under a wider mask.  A
           halted processor's crash changes nothing observable, so only
           live processors crash. *)
        if Repro_util.Bits.popcount crashed < max_crashes then
          for p = 0 to n - 1 do
            if !live land (1 lsl p) <> 0 then begin
              Bytes.blit_string key 0 buf 0 kw;
              Bytes.set buf (kw - 1) (Char.chr (crashed lor (1 lsl p)));
              move id (n + p) st
            end
          done;
        if !live = 0 then terminal := id :: !terminal
      end;
      (* Pops happen in id order, so this row is deg.(id); a violation
         leaves deg shorter than the table — the CSR builder pads the
         never-popped tail with zeros. *)
      ignore
        (State_table.Packed_vec.push deg
           (State_table.Packed_vec.length succ - edges_before))
      end
    done;
    if !exhausted <> None then
      Exhausted
        {
          reason = Option.get !exhausted;
          states = State_table.length table;
        }
    else begin
      let space =
        {
          cfg;
          wiring;
          inputs;
          reduction = canon;
          table;
          parent;
          succ;
          deg;
          terminal = List.rev !terminal;
        }
      in
      match !violation with
      | Some (state_id, message) ->
          Invariant_failed
            (space, { state_id; message; trace = trace_to space state_id })
      | None -> Explored space
    end

  (* Offsets of the CSR image: [space.succ] is already grouped by source
     in id order, so the offsets are just prefix sums of the out-degrees.
     States never popped (discovered after a violation aborted the BFS)
     have no deg row and contribute zero. *)
  let csr_offsets space =
    let n = state_count space in
    let d = State_table.Packed_vec.length space.deg in
    let off = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      let du = if u < d then State_table.Packed_vec.get space.deg u else 0 in
      off.(u + 1) <- off.(u) + du
    done;
    off

  (* The one SCC pass: CSR offsets, component ids, and each component's
     internal-edge pid mask — bit [p] set iff some [p]-edge joins two of
     its states, 0 for a component with no internal edge. *)
  let sccs space =
    let off = csr_offsets space in
    let comp, ncomp =
      Repro_util.Scc.tarjan ~n:(state_count space) ~off:(Array.get off)
        ~adj:(fun i -> State_table.Packed_vec.get space.succ i asr 4)
    in
    let internal = Array.make ncomp 0 in
    for u = 0 to state_count space - 1 do
      for i = off.(u) to off.(u + 1) - 1 do
        let packed = State_table.Packed_vec.get space.succ i in
        let c = comp.(u) in
        if c = comp.(packed asr 4) then
          internal.(c) <- internal.(c) lor (1 lsl (packed land 15))
      done
    done;
    (off, comp, internal)

  (** Processors that can take infinitely many steps without terminating:
      those with an edge inside a strongly connected component of the
      transition graph.  Empty result = the protocol is wait-free for this
      wiring and input assignment.  (On a reduced space the reported pids
      are representatives of their symmetry class: a quotient cycle lifts
      to a concrete divergence because automorphisms have finite order.) *)
  let divergent_processors space =
    let _, _, internal = sccs space in
    let mask = Array.fold_left ( lor ) 0 internal in
    List.filter
      (fun p -> mask land (1 lsl p) <> 0)
      (List.init max_processors Fun.id)

  (** {1 Fair-cycle detection}

      A liveness violation for the one-shot competition protocols
      (deadlock or livelock) is a reachable {e fair} strongly connected
      component: a non-trivial SCC in which every live processor has an
      edge — a fair scheduler can then keep every live processor stepping
      forever inside the component.  Conversely, in an SCC where some
      live processor has no internal edge, fairness forces that
      processor to move and thereby leave the component for good (if the
      execution could return, the left-to states would belong to the same
      SCC).  Halting is monotone, so the live set is constant across a
      component and can be read off any member state. *)

  type lasso = {
    live : int list;  (** the processors spinning forever *)
    stem : int list;  (** steps from the initial state to the cycle's entry *)
    cycle : int list;
        (** steps around the fair cycle back to its entry, stepping every
            live processor at least once *)
  }

  (** The first fair SCC by discovery order, as a concrete lasso: the
      stem is the BFS trace to the component's first-discovered state,
      the cycle visits an internal edge of each live processor in turn,
      by shortest paths inside the component, and returns.  A quotient
      cycle does not replay, so a reduced space raises
      [Invalid_argument]. *)
  let fair_lasso space =
    if space.reduction <> None then
      invalid_arg "Explorer.fair_lasso: reduced space";
    let off, comp, internal = sccs space in
    let live_at u =
      let locals = (state_of space u).locals in
      List.filter
        (fun p -> not (P.halted space.cfg locals.(p)))
        (List.init (P.processors space.cfg) Fun.id)
    in
    (* The first state, by id, of a component with an internal edge of
       every live processor. *)
    let rec first u =
      if u >= state_count space then None
      else
        let mask = internal.(comp.(u)) in
        let live = if mask = 0 then [] else live_at u in
        if live <> [] && List.for_all (fun p -> mask land (1 lsl p) <> 0) live
        then Some (u, live)
        else first (u + 1)
    in
    Option.map
      (fun (entry, live) ->
        let c = comp.(entry) in
        let edges u =
          let rec go i acc =
            if i >= off.(u + 1) then List.rev acc
            else
              let packed = State_table.Packed_vec.get space.succ i in
              let v = packed asr 4 and p = packed land 15 in
              go (i + 1) (if comp.(v) = c then (p, v) :: acc else acc)
          in
          go off.(u) []
        in
        (* BFS inside the component from [src] to a node satisfying
           [goal]; returns the pid path and the reached node. *)
        let bfs src goal =
          if goal src then ([], src)
          else begin
            let pred = Hashtbl.create 64 in
            Hashtbl.replace pred src (-1, -1);
            let q = Queue.create () in
            Queue.push src q;
            let found = ref None in
            while !found = None && not (Queue.is_empty q) do
              let u = Queue.pop q in
              List.iter
                (fun (p, v) ->
                  if !found = None && not (Hashtbl.mem pred v) then begin
                    Hashtbl.replace pred v (u, p);
                    if goal v then found := Some v else Queue.push v q
                  end)
                (edges u)
            done;
            match !found with
            | None ->
                invalid_arg "Explorer.fair_lasso: goal unreachable in SCC"
            | Some dst ->
                let rec up v acc =
                  match Hashtbl.find pred v with
                  | -1, -1 -> acc
                  | u, p -> up u (p :: acc)
                in
                (up dst [], dst)
          end
        in
        let visit (path, node) p =
          (* reach a node with an internal p-edge, then take it *)
          let path', u = bfs node (fun u -> List.mem_assoc p (edges u)) in
          let v = List.assoc p (edges u) in
          (path @ path' @ [ p ], v)
        in
        let path, node = List.fold_left visit ([], entry) live in
        let back, _ = bfs node (fun u -> u = entry) in
        {
          live;
          stem = List.map fst (trace_to space entry);
          cycle = path @ back;
        })
      (first 0)

  (** Terminal outcomes: the task outcome at every all-halted state.
      [to_task_output] converts protocol outputs for the task checkers. *)
  let terminal_outcomes space ~group_of_input ~to_task_output =
    List.map
      (fun id ->
        let outs = outputs space.cfg (state_of space id) in
        Tasks.Outcome.make
          ~inputs:(Array.map group_of_input space.inputs)
          ~outputs:(Array.map (Option.map to_task_output) outs)
          ())
      space.terminal

  (** {1 Exhaustive depth-first checking}

      The BFS {!explore} materializes the transition graph (needed for
      terminal-outcome analyses and shortest counterexamples) but still
      costs the key bytes plus roughly five bytes per transition; the
      3-processor snapshot spaces run to tens of millions of states per
      wiring, which calls for a leaner pass.  This DFS checks the same two
      properties — a state invariant, and wait-freedom — without storing
      any edges:

      wait-freedom for {e every} processor is equivalent to the transition
      graph being acyclic (any cycle contains an edge, and that edge's
      processor can then take infinitely many steps without terminating),
      and acyclicity is exactly the absence of back edges in a DFS.  The
      DFS keeps only the visited table (key → id), one color byte per
      state, and the current path.  Acyclicity of the symmetry quotient
      coincides with acyclicity of the full graph (project a cycle down;
      lift a quotient cycle by iterating its automorphism to its finite
      order), so [~reduction] is sound here too. *)

  type dfs_stats = {
    dfs_states : int;
    dfs_transitions : int;
    dfs_terminals : int;
    dfs_max_depth : int;
  }

  type dfs_result =
    | Dfs_ok of dfs_stats
    | Dfs_invariant_failed of {
        message : string;
        state : state;
            (** the violating state (concrete): [invariant state] is
                [Error message].  The DFS keeps no trace; {!explore} on the
                same wiring rebuilds a minimal one. *)
        stats : dfs_stats;
      }
    | Dfs_cycle of {
        processors : int list;
            (** processors taking steps on the cycle found: each of them
                can run forever without terminating (symmetry-class
                representatives under [~reduction]) *)
        stats : dfs_stats;
      }
    | Dfs_exhausted of { reason : Governor.reason; stats : dfs_stats }
        (** a resource governor tripped mid-search; resumable when a
            checkpoint policy was in force *)

  (* One entry of the DFS path (see [check_exhaustive]). *)
  type dfs_frame = {
    id : int;
    key : string;  (** canonical key *)
    st : state;
    entered_by : int;  (** pid of the step into this frame; -1 at the root *)
    mutable next_p : int;  (** next processor index to try *)
    mutable any_enabled : bool;
  }

  (** [fail_on_cycle] (default true) reports the first cycle as a
      wait-freedom violation; pass [false] for protocols that are only
      obstruction-free (e.g. consensus), where cycles are expected and only
      the invariant is being checked.  [log2_slots] (default 12) pre-sizes
      the visited table, which grows as needed. *)
  let check_exhaustive ?(fail_on_cycle = true) ?invariant ?stop_expansion
      ?(reduction = false) ?(log2_slots = 12) ?governor ?ckpt ?(resume = false)
      ?(ckpt_extra = []) ~cfg ~wiring ~inputs () =
    guard_processors ~engine:"Explorer.check_exhaustive" (P.processors cfg);
    let canon = symmetry ~reduction ~cfg ~wiring ~inputs in
    let canonical key =
      match canon with Some c -> Canon.canonicalize c key | None -> key
    in
    let init = init_state ~cfg ~inputs in
    let key0 = canonical (encode_state cfg init) in
    let context =
      Fmt.str "dfs|%d|%a|%b|%b|%S" (key_width cfg) Anonmem.Wiring.pp wiring
        reduction fail_on_cycle key0
    in
    let who = "Explorer.check_exhaustive" in
    let resumed = Checkpoint.resumable ~who ~context ~resume ckpt in
    let table, colors =
      match resumed with
      | Some sections ->
          ( State_table.deserialize (Checkpoint.find "table" sections),
            State_table.Packed_vec.deserialize
              (Checkpoint.find "colors" sections) )
      | None ->
          ( State_table.create ~log2_slots ~key_width:(key_width cfg) (),
            State_table.Packed_vec.create ~stride:1 () )
    in
    (* 1 = gray (on the DFS path), 2 = black (done) *)
    let n = P.processors cfg in
    let transitions = ref 0 and terminals = ref 0 and max_depth = ref 0 in
    let stats () =
      {
        dfs_states = State_table.length table;
        dfs_transitions = !transitions;
        dfs_terminals = !terminals;
        dfs_max_depth = !max_depth;
      }
    in
    let outcome = ref None in
    (* The DFS path, deepest frame first.  Each frame carries its state
       decoded once, at push: the concrete successor itself when unreduced
       (its key is its exact encoding), the decoded canonical key under
       reduction.  The path is as deep as the longest simple path explored
       (313 frames on Figure 3 at n=3), so the states it holds are
       negligible next to the visited table. *)
    let stack = ref [] and depth = ref 0 in
    (match resumed with
    | Some sections ->
        let frames = Checkpoint.find_ints ~who ~group:4 "frames" sections in
        (* Stored bottom-to-top; consing rebuilds head = deepest frame.
           Keys are recovered from the table arena, not stored twice. *)
        for i = 0 to (Array.length frames / 4) - 1 do
          let id = frames.(4 * i) in
          let key = State_table.key_of_id table id in
          stack :=
            {
              id;
              key;
              st = decode_state cfg key;
              entered_by = frames.((4 * i) + 1);
              next_p = frames.((4 * i) + 2);
              any_enabled = frames.((4 * i) + 3) = 1;
            }
            :: !stack
        done;
        let counters = Checkpoint.find_ints ~who ~count:4 "counters" sections in
        transitions := counters.(0);
        terminals := counters.(1);
        max_depth := counters.(2);
        depth := counters.(3)
    | None -> ());
    let save_ckpt path =
      let frames =
        List.rev !stack
        |> List.concat_map (fun f ->
               [ f.id; f.entered_by; f.next_p; (if f.any_enabled then 1 else 0) ])
        |> Array.of_list
      in
      Checkpoint.save ~path
        ([
           ("context", Bytes.of_string context);
           ("table", State_table.serialize table);
           ("colors", State_table.Packed_vec.serialize colors);
           ("frames", Checkpoint.bytes_of_ints frames);
           ( "counters",
             Checkpoint.bytes_of_ints
               [| !transitions; !terminals; !max_depth; !depth |] );
         ]
        @ ckpt_extra)
    in
    let durable = Checkpoint.run ?governor ckpt save_ckpt in
    (* Only called for ids [intern] just minted, so the colors index pushed
       alongside equals [id].  [st] is the concrete state the invariant
       sees; [key] its canonical key. *)
    let push_state id key ~entered_by st =
      ignore (State_table.Packed_vec.push colors 1);
      (match invariant with
      | Some check -> (
          match check st with
          | Ok () -> ()
          | Error message ->
              if !outcome = None then
                outcome :=
                  Some
                    (Dfs_invariant_failed
                       { message; state = st; stats = stats () }))
      | None -> ());
      let st = if canon = None then st else decode_state cfg key in
      stack :=
        { id; key; st; entered_by; next_p = 0; any_enabled = false } :: !stack;
      incr depth;
      if !depth > !max_depth then max_depth := !depth
    in
    (* An edge by [p] from the top frame to the already-seen [id']: a
       back edge when [id'] is still on the path (gray), i.e. a cycle
       through [id'].  Collect the pids of the path segment from [id'] to
       here, plus [p]. *)
    let revisit p id' =
      if fail_on_cycle && State_table.Packed_vec.get colors id' = 1 then begin
        let rec collect acc = function
          | g :: rest ->
              if g.id = id' then acc else collect (g.entered_by :: acc) rest
          | [] -> acc
        in
        let pids = p :: collect [] !stack in
        outcome :=
          Some
            (Dfs_cycle
               { processors = List.sort_uniq compare pids; stats = stats () })
      end
    in
    let buf = Bytes.create (key_width cfg) in
    if resumed = None then
      push_state (State_table.intern table key0) key0 ~entered_by:(-1) init;
    let exhausted = ref None in
    while !stack <> [] && !outcome = None && !exhausted = None do
      exhausted := Checkpoint.tick durable;
      if !exhausted = None then begin
      match !stack with
      | [] -> ()
      | f :: rest ->
          (if f.next_p = 0 then
             match stop_expansion with
             | Some cut when cut f.st ->
                 (* cut-off leaf: skip successors; not a terminal state *)
                 f.next_p <- n;
                 f.any_enabled <- true
             | _ -> ());
          if f.next_p >= n then begin
            if not f.any_enabled then incr terminals;
            State_table.Packed_vec.set colors f.id 2;
            stack := rest;
            decr depth
          end
          else begin
            let p = f.next_p in
            f.next_p <- p + 1;
            match P.next cfg f.st.locals.(p) with
            | None -> ()
            | Some action ->
              f.any_enabled <- true;
              incr transitions;
              let st' =
                successor_into cfg wiring f.st (Bytes.unsafe_of_string f.key) 0
                  p action buf
              in
              (* One probe: [intern] either finds the key or mints the next
                 id.  Unreduced, the probe reads [buf] in place and a key
                 string is built only for a fresh state. *)
              let before = State_table.length table in
              match canon with
              | None ->
                  let id' = State_table.intern_bytes table buf in
                  if id' = before then
                    push_state id' (Bytes.to_string buf) ~entered_by:p st'
                  else revisit p id'
              | Some c ->
                  let key' = Canon.canonicalize c (Bytes.to_string buf) in
                  let id' = State_table.intern table key' in
                  if id' = before then push_state id' key' ~entered_by:p st'
                  else revisit p id'
          end
      end
    done;
    if !exhausted <> None then
      Dfs_exhausted { reason = Option.get !exhausted; stats = stats () }
    else match !outcome with Some r -> r | None -> Dfs_ok (stats ())

  (** Check an invariant and wait-freedom across a set of wirings —
      by default every wiring with processor 0's permutation pinned to the
      identity (register anonymity makes the restriction lossless) — for
      one input assignment, using the lean DFS pass.  [on_wiring] observes
      the summary after each wiring that passes.  [~reduction:true]
      additionally quotients each per-wiring space by its anonymity
      symmetries.  With [ckpt], the {!sweep_section} rides in each
      per-wiring DFS checkpoint, so one file resumes both.  Each visited
      table starts at 2{^20} slots, the scale of the n = 3 snapshot
      spaces. *)
  let check_all_wirings ?invariant ?on_wiring ?wirings
      ?(reduction = false) ?governor ?ckpt ?(resume = false) ~cfg ~inputs () =
    Wiring_sweep.run ?governor ?wirings ~section:sweep_section ?ckpt ~resume
      ?on_wiring ~n:(P.processors cfg) ~m:(P.registers cfg) ~init:empty_summary
      ~add:(fun summary s ->
        {
          wirings_checked = summary.wirings_checked + 1;
          total_states = summary.total_states + s.dfs_states;
          max_space_states = max summary.max_space_states s.dfs_states;
          total_transitions = summary.total_transitions + s.dfs_transitions;
          terminal_states = summary.terminal_states + s.dfs_terminals;
          all_wait_free = summary.all_wait_free;
        })
      (fun ~governor ~resume ~ckpt_extra wiring ->
        match
          check_exhaustive ?invariant ~reduction ~log2_slots:20 ?governor ?ckpt
            ~resume ~ckpt_extra ~cfg ~wiring ~inputs ()
        with
        | Dfs_exhausted { reason; stats } ->
            Error (exhausted_error reason stats.dfs_states)
        | Dfs_invariant_failed { message; _ } ->
            Error (invariant_error wiring message)
        | Dfs_cycle { processors; _ } ->
            Error
              (Fmt.str
                 "wait-freedom violated under wiring %a: processors %a diverge"
                 Anonmem.Wiring.pp wiring
                 Fmt.(list ~sep:comma int)
                 processors)
        | Dfs_ok s -> Ok s)
    |> Result.map_error snd

  (** {1 Fingerprint (hash-compacted) exploration}

      The exact engines above are bounded by RAM: the visited set stores
      every key's bytes.  This engine follows TLC's hash-compaction
      playbook instead — a state is remembered only as the 64-bit
      fingerprint of its canonical key, in a {!Fingerprint_set} whose RAM
      tier is capped by [ram_budget_bytes] and whose overflow spills to
      sorted on-disk runs.  The BFS proceeds in {e layers}, and candidate
      successors are probed in batches of up to [batch_states] keys, so
      each spill run is streamed once per batch rather than once per
      state.

      The engine is {e safety-only}: it stores no edges or parents, so it
      decides invariants and counts states/transitions/terminals but
      cannot decide wait-freedom.  It is also {e lossy} with a quantified
      error: a 64-bit collision silently omits a subtree, with total
      probability at most the reported birthday bound (states² · 2⁻⁶⁴).
      Counterexample traces are reconstructed by rerunning the exact BFS
      (minimal-length, as usual) — intended for the test-scale spaces
      where violations are planted; at frontier scale the message alone
      still identifies the failing invariant.

      Checkpoints are written at batch boundaries (the consistent points:
      every expanded state's candidates have been flushed into the set):
      the RAM tier and a manifest pinning the run files ride in the
      checkpoint via {!Fingerprint_set.to_sections}, and the two frontier
      halves (the unexpanded remainder of the current layer, the
      accumulated next layer) are stored as fixed-width key runs.  On a
      governor trip the run files are kept on disk for the resume;
      otherwise {!Fingerprint_set.close} deletes them. *)

  type fp_stats = {
    fp_states : int;
    fp_transitions : int;
    fp_terminals : int;
    fp_layers : int;  (** BFS depth reached (layers fully expanded) *)
    fp_runs : int;  (** spill runs written *)
    fp_bytes_spilled : int;
    fp_bound : float;  (** birthday omission bound for this exploration *)
  }

  type fp_result =
    | Fp_explored of fp_stats
    | Fp_invariant_failed of {
        stats : fp_stats;
        message : string;
        trace : (int * state) list;
            (** minimal-length counterexample, rebuilt by the exact BFS *)
      }
    | Fp_exhausted of { reason : Governor.reason; states : int }

  let explore_fp ?invariant ?stop_expansion ?(reduction = false) ?governor
      ?ckpt ?(resume = false) ?(ckpt_extra = [])
      ?(ram_budget_bytes = 64 * 1024 * 1024) ?(batch_states = 1 lsl 20)
      ?spill_dir ~cfg ~wiring ~inputs () =
    guard_processors ~engine:"Explorer.explore_fp" (P.processors cfg);
    let canon = symmetry ~reduction ~cfg ~wiring ~inputs in
    let kw = key_width cfg in
    let key0 =
      let key = encode_state cfg (init_state ~cfg ~inputs) in
      match canon with Some c -> Canon.canonicalize c key | None -> key
    in
    let context =
      Fmt.str "fpbfs|%d|%a|%b|%d|%S" kw Anonmem.Wiring.pp wiring reduction
        ram_budget_bytes key0
    in
    (* Spill runs must live next to the checkpoint when there is one: a
       resumed run re-opens them by manifest. *)
    let dir =
      match (spill_dir, ckpt) with
      | Some d, _ -> Some d
      | None, Some { Checkpoint.path; _ } -> Some (Checkpoint.runs_dir path)
      | None, None -> None
    in
    let who = "Explorer.explore_fp" in
    let resumed = Checkpoint.resumable ~who ~context ~resume ckpt in
    (* Keys live in pages: [Bytes] of [kw]-byte records, grown by
       doubling.  [cur] holds the layer being expanded, [pos] of its
       [ncur] keys done; [next] the [nnext] fresh keys of the next layer;
       [cand] the [ncand] successors of the pending batch. *)
    let room page ~used ~want =
      if Bytes.length page >= want * kw then page
      else begin
        let b = Bytes.create (max (want * kw) (2 * Bytes.length page)) in
        Bytes.blit page 0 b 0 (used * kw);
        b
      end
    in
    let page_of_section tag sections =
      let b = Checkpoint.find_records ~who ~width:kw tag sections in
      (b, Bytes.length b / kw)
    in
    let states = ref 0
    and transitions = ref 0
    and terminals = ref 0
    and layers = ref 0
    and expanded = ref 0 in
    let cur = ref Bytes.empty and ncur = ref 0 and pos = ref 0 in
    let next = ref Bytes.empty and nnext = ref 0 in
    let cand = ref Bytes.empty and ncand = ref 0 in
    let violation = ref None in
    let fps =
      match resumed with
      | Some sections ->
          let dir =
            match dir with
            | Some d -> d
            | None -> assert false (* resume implies a checkpoint path *)
          in
          let fps =
            Fingerprint_set.of_sections ~ram_budget_bytes ~dir sections
          in
          let c = Checkpoint.find_ints ~who ~count:5 "counters" sections in
          states := c.(0);
          transitions := c.(1);
          terminals := c.(2);
          layers := c.(3);
          expanded := c.(4);
          let b, n = page_of_section "fcur" sections in
          cur := b;
          ncur := n;
          let b, n = page_of_section "fnext" sections in
          next := b;
          nnext := n;
          fps
      | None -> Fingerprint_set.create ~ram_budget_bytes ?dir ()
    in
    let save_ckpt path =
      Checkpoint.save ~path
        ([
           ("context", Bytes.of_string context);
           ( "counters",
             Checkpoint.bytes_of_ints
               [| !states; !transitions; !terminals; !layers; !expanded |] );
           ("fcur", Bytes.sub !cur (!pos * kw) ((!ncur - !pos) * kw));
           ("fnext", Bytes.sub !next 0 (!nnext * kw));
         ]
        @ Fingerprint_set.to_sections fps
        @ ckpt_extra)
    in
    (* Ticks come per popped state, but the image is consistent only
       with no batch pending: the set and the frontier halves agree at a
       batch or layer boundary, where the run settles. *)
    let durable = Checkpoint.run ?governor ckpt save_ckpt in
    (* Probe the pending batch: fresh keys are counted, invariant-checked
       on their decoded representative, and appended to the next
       layer. *)
    let flush () =
      if !ncand > 0 then begin
        let fresh =
          Fingerprint_set.add_page fps !cand ~width:kw ~count:!ncand
        in
        ncand := 0;
        for i = 0 to fresh - 1 do
          incr states;
          match invariant with
          | Some check -> (
              match check (decode_at cfg !cand (i * kw)) with
              | Ok () -> ()
              | Error message ->
                  if !violation = None then violation := Some message)
          | None -> ()
        done;
        next := room !next ~used:!nnext ~want:(!nnext + fresh);
        Bytes.blit !cand 0 !next (!nnext * kw) (fresh * kw);
        nnext := !nnext + fresh
      end
    in
    let exhausted = ref None in
    (if resumed = None then
       let fresh = Fingerprint_set.add_batch fps [| key0 |] in
       assert fresh.(0);
       states := 1;
       (match invariant with
       | Some check -> (
           match check (decode_state cfg key0) with
           | Ok () -> ()
           | Error message -> violation := Some message)
       | None -> ());
       cur := Bytes.of_string key0;
       ncur := 1);
    let buf = Bytes.create kw in
    let running = ref (!violation = None) in
    while !running do
      (* Consume the current layer, batching candidate successors. *)
      while !pos < !ncur && !violation = None && !exhausted = None do
        exhausted := Checkpoint.poll durable;
        if !exhausted = None then begin
          let off = !pos * kw in
          incr pos;
          incr expanded;
          let st = decode_at cfg !cur off in
          let expand =
            match stop_expansion with Some f -> not (f st) | None -> true
          in
          if expand then begin
            let any_enabled = ref false in
            for p = 0 to Array.length st.locals - 1 do
              match P.next cfg st.locals.(p) with
              | None -> ()
              | Some action -> (
                  any_enabled := true;
                  incr transitions;
                  ignore (successor_into cfg wiring st !cur off p action buf);
                  cand := room !cand ~used:!ncand ~want:(!ncand + 1);
                  let at = !ncand * kw in
                  incr ncand;
                  match canon with
                  | None -> Bytes.blit buf 0 !cand at kw
                  | Some c ->
                      let key' = Canon.canonicalize c (Bytes.to_string buf) in
                      Bytes.blit_string key' 0 !cand at kw)
            done;
            if not !any_enabled then incr terminals
          end;
          if !ncand >= batch_states then begin
            flush ();
            Checkpoint.settle durable
          end
        end
      done;
      (* Pause point: flush what is pending so the set and the frontier
         halves are a consistent image, then classify. *)
      flush ();
      if !violation <> None then running := false
      else if !exhausted <> None then begin
        Checkpoint.settle durable;
        running := false
      end
      else if !nnext = 0 then running := false
      else begin
        Checkpoint.settle durable;
        let spent = !cur in
        cur := !next;
        ncur := !nnext;
        pos := 0;
        next := spent;
        nnext := 0;
        incr layers
      end
    done;
    let stats () =
      {
        fp_states = !states;
        fp_transitions = !transitions;
        fp_terminals = !terminals;
        fp_layers = !layers;
        fp_runs = Fingerprint_set.spilled_runs fps;
        fp_bytes_spilled = Fingerprint_set.spill_bytes fps;
        fp_bound = Fingerprint_set.omission_bound fps;
      }
    in
    match !violation with
    | Some message ->
        let st = stats () in
        Fingerprint_set.close fps;
        (* Minimal counterexample via the exact engine (same quotient,
           same oracle) — the fingerprint set has no parents to walk. *)
        let trace =
          match
            explore ?invariant ?stop_expansion ~reduction ~cfg ~wiring ~inputs
              ()
          with
          | Invariant_failed (_, v) -> v.trace
          | _ -> []
        in
        Fp_invariant_failed { stats = st; message; trace }
    | None ->
        if !exhausted <> None then begin
          let n = !states in
          Fingerprint_set.close ~keep_runs:(ckpt <> None) fps;
          Fp_exhausted { reason = Option.get !exhausted; states = n }
        end
        else begin
          let st = stats () in
          Fingerprint_set.close fps;
          Fp_explored st
        end

  (** Safety-only sweep over wirings with the fingerprint engine: same
      iteration, checkpointing and error-string contract as
      {!check_all_wirings}, but RAM-bounded and without wait-freedom
      verdicts.  A fresh fingerprint set serves each wiring (runs are
      deleted between wirings); the summary's omission bound is the union
      bound over the per-wiring bounds. *)
  let check_all_wirings_fp ?invariant ?on_wiring ?wirings
      ?(reduction = false) ?governor ?ckpt ?(resume = false) ?ram_budget_bytes
      ?spill_dir ~cfg ~inputs () =
    Wiring_sweep.run ?governor ?wirings ~section:fp_sweep_section ?ckpt
      ~resume ?on_wiring ~n:(P.processors cfg) ~m:(P.registers cfg)
      ~init:empty_fp_summary
      ~add:(fun summary st ->
        {
          fp_wirings = summary.fp_wirings + 1;
          fp_total_states = summary.fp_total_states + st.fp_states;
          fp_max_space_states = max summary.fp_max_space_states st.fp_states;
          fp_total_transitions =
            summary.fp_total_transitions + st.fp_transitions;
          fp_terminal_states = summary.fp_terminal_states + st.fp_terminals;
          fp_omission_bound = summary.fp_omission_bound +. st.fp_bound;
          fp_spilled_runs = summary.fp_spilled_runs + st.fp_runs;
          fp_spill_bytes = summary.fp_spill_bytes + st.fp_bytes_spilled;
        })
      (fun ~governor ~resume ~ckpt_extra wiring ->
        match
          explore_fp ?invariant ~reduction ?governor ?ckpt ~resume ~ckpt_extra
            ?ram_budget_bytes ?spill_dir ~cfg ~wiring ~inputs ()
        with
        | Fp_exhausted { reason; states } -> Error (exhausted_error reason states)
        | Fp_invariant_failed { message; _ } ->
            Error (invariant_error wiring message)
        | Fp_explored st -> Ok st)
    |> Result.map_error snd

  (** {1 Crash-stop sweep}

      {!explore} with [max_crashes] swept over wirings.  The search is
      time-abstract: instead of fixing fault times as the simulator's
      {!Anonmem.Fault.plan} does, it branches on "processor [p] crashes
      {e now}" at every reachable state, which covers every timed plan
      with at most [max_crashes] crashes — a safety certificate here
      subsumes every seeded crash-stop campaign of the fuzzer at the same
      sizes.  Only the invariant is checked: crashed processors trivially
      never terminate, so wait-freedom under crash-stop is the fuzzer's
      oracle territory.  BFS keeps a reported witness minimal. *)

  type crash_summary = {
    wirings_checked : int;
    total_states : int;  (** distinct (core state, crashed set) pairs *)
    total_transitions : int;
    total_crash_branches : int;  (** how many transitions were crashes *)
  }

  (* The crash sweep's position in a checkpoint ({!Wiring_sweep}). *)
  let crash_sweep_section =
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

  (** Check [invariant] across a set of wirings (by default every wiring
      with processor 0 pinned, as {!check_all_wirings}) for one input
      assignment, under at most [max_crashes] (default 1) crash-stops
      injected at arbitrary points.  A violation's error names the
      crashed processors and the witness, each move [pK] or [crash:pK].
      With [ckpt], each per-wiring search checkpoints with the sweep's
      position (section ["crash_sweep"]) and the caller's [ckpt_extra]
      sections beside it, so [~resume] re-enters the sweep where it
      stopped. *)
  let check_all_wirings_crashes ?(max_crashes = 1) ?invariant ?wirings
      ?governor ?ckpt ?(resume = false) ?(ckpt_extra = []) ~cfg ~inputs () =
    let n = P.processors cfg in
    let pp_move ppf pid =
      if pid < n then Fmt.pf ppf "p%d" (pid + 1)
      else Fmt.pf ppf "crash:p%d" (pid - n + 1)
    in
    Wiring_sweep.run ?governor ?wirings ~section:crash_sweep_section ?ckpt
      ~resume ~n ~m:(P.registers cfg)
      ~init:
        {
          wirings_checked = 0;
          total_states = 0;
          total_transitions = 0;
          total_crash_branches = 0;
        }
      ~add:(fun a b ->
        {
          wirings_checked = a.wirings_checked + b.wirings_checked;
          total_states = a.total_states + b.total_states;
          total_transitions = a.total_transitions + b.total_transitions;
          total_crash_branches = a.total_crash_branches + b.total_crash_branches;
        })
      (fun ~governor ~resume ~ckpt_extra:position wiring ->
        match
          explore ~max_crashes ?invariant ?governor ?ckpt ~resume
            ~ckpt_extra:(position @ ckpt_extra) ~cfg ~wiring ~inputs ()
        with
        | Exhausted { reason; states } -> Error (exhausted_error reason states)
        | Invariant_failed (_, v) ->
            let moves = List.map fst v.trace in
            Error
              (Fmt.str
                 "invariant violated under wiring %a with crashes {%a}: %s \
                  (witness: %a)"
                 Anonmem.Wiring.pp wiring
                 Fmt.(list ~sep:comma int)
                 (List.filter
                    (fun p -> List.mem (n + p) moves)
                    (List.init n Fun.id))
                 v.message
                 Fmt.(list ~sep:(any " ") pp_move)
                 moves)
        | Explored space ->
            Ok
              {
                wirings_checked = 1;
                total_states = state_count space;
                total_transitions = transition_count space;
                total_crash_branches = crash_transitions space;
              })
    |> Result.map_error snd
end
