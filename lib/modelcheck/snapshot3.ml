(** Specialized exhaustive checker for the 3-processor instance of the
    Figure-3 snapshot algorithm — the exact configuration of the paper's
    TLC claim.

    The generic explorer ({!Explorer}) keeps one hash-table entry, a byte
    key and bookkeeping per state (~70 bytes); the 3-processor spaces top
    100 million states per wiring, which does not fit comfortably.  Here a
    whole system state packs into a single 54-bit integer:

    {v
    per processor (13 bits x 3):   per register (5 bits x 3):
      view       3 bits              view   3 bits
      level      2 bits              level  2 bits
      written    3 bits  (registers written this round)
      phase      3 bits  (0 = writing, 1 + pos*2 + all_own = scanning)
      min_level  2 bits
    v}

    Figure 3's write phase "picks a register that it has not written to
    since it last wrote all the registers".  A search's {!write_order}
    says which picks it explores: [Any] branches over every unwritten
    register (the paper's specification), [Cyclic] always takes the
    lowest one, which is the shipped implementation's private cyclic
    order (written-sets 000, 001, 011 are its cursor positions 0, 1, 2).
    A step is a (processor, choice) pair; under [Cyclic] the choice is
    always 0.

    The visited set is an open-addressing table of packed states with a
    2-bit DFS color per slot (~8.2 bytes per state at 50% load), and the
    transition function works directly on the packed representation, so
    exploration allocates nothing on the hot path.  Wait-freedom is
    checked as acyclicity (DFS back edge), the safety invariant as in
    {!Core.snapshot_invariant}: all outputs contain the owner's input,
    only participating inputs, and are pairwise related by containment.

    Two sound canonicalizations quotient the space (both are in the
    generic codec path as well, except the last): [min_level] is pinned
    to 0 once a scan has diverged, and a terminated processor's
    written-set is pinned to 0 (it takes no further steps, so the set is
    dead state).

    [selfcheck] steps the packed semantics ([Cyclic]) and the reference
    implementation in lockstep along random 3-processor executions and
    compares the packed states after every step. *)

open Repro_util

let n = 3
let m = 3

type write_order = Cyclic | Any

(* -- bit twiddling --------------------------------------------------------- *)

let local_bits = 13
let reg_bits = 5
let reg_off r = (n * local_bits) + (r * reg_bits)
let local_off p = p * local_bits
let lmask = (1 lsl local_bits) - 1
let rmask = (1 lsl reg_bits) - 1
let all_written = (1 lsl m) - 1

(* local fields *)
let l_view l = l land 7
let l_level l = (l lsr 3) land 3
let l_written l = (l lsr 5) land 7
let l_phase l = (l lsr 8) land 7
let l_min l = (l lsr 11) land 3

let mk_local ~view ~level ~written ~phase ~mn =
  view lor (level lsl 3) lor (written lsl 5) lor (phase lsl 8) lor (mn lsl 11)

(* register fields *)
let r_view v = v land 7
let r_level v = (v lsr 3) land 3
let mk_reg ~view ~level = view lor (level lsl 3)

let get_local s p = (s lsr local_off p) land lmask
let set_local s p l = s land lnot (lmask lsl local_off p) lor (l lsl local_off p)
let get_reg s r = (s lsr reg_off r) land rmask
let set_reg s r v = s land lnot (rmask lsl reg_off r) lor (v lsl reg_off r)

let halted l = l_level l >= n && l_phase l = 0

(* -- semantics on packed states -------------------------------------------- *)

(** Number of choices processor [p] has in state [s]: 0 when halted, 1
    during a scan, and during the write phase one per unwritten register
    under [Any] (just the lowest under [Cyclic]). *)
let choices write_order s p =
  let l = get_local s p in
  if halted l then 0
  else if l_phase l <> 0 then 1
  else
    match write_order with
    | Cyclic -> 1
    | Any ->
        let w = l_written l in
        m - (w land 1) - ((w lsr 1) land 1) - ((w lsr 2) land 1)

(** The [c]-th unwritten private register of a round's [written] set. *)
let rec nth_unwritten written c i =
  if i >= m then invalid_arg "Snapshot3.write_target"
  else if written land (1 lsl i) <> 0 then nth_unwritten written c (i + 1)
  else if c = 0 then i
  else nth_unwritten written (c - 1) (i + 1)

let write_target written c = nth_unwritten written c 0

(** [step s p c sigma] is the packed successor when processor [p], wired
    through [sigma] (array: private index -> physical register), takes
    its pending step with choice [c] (the [c]-th unwritten register in a
    write phase; 0 in a scan).  With [c = 0] throughout it is
    behaviourally identical to {!Algorithms.Snapshot} (checked by
    {!selfcheck}). *)
let step s p c sigma =
  let l = get_local s p in
  let phase = l_phase l in
  if phase = 0 then begin
    let i = write_target (l_written l) c in
    let s = set_reg s sigma.(i) (mk_reg ~view:(l_view l) ~level:(l_level l)) in
    let written = l_written l lor (1 lsl i) in
    let written = if written = all_written then 0 else written in
    (* scanning, pos 0, all_own *)
    set_local s p
      (mk_local ~view:(l_view l) ~level:(l_level l) ~written ~phase:2 ~mn:n)
  end
  else begin
    (* scan phase: read register sigma(pos) *)
    let pos = (phase - 1) / 2 in
    let all_own = (phase - 1) land 1 = 1 in
    let v = get_reg s sigma.(pos) in
    let all_own = all_own && r_view v = l_view l in
    let view = if all_own then l_view l else l_view l lor r_view v in
    let mn = if all_own then min (l_min l) (r_level v) else 0 in
    let l' =
      if pos + 1 < m then
        mk_local ~view ~level:(l_level l) ~written:(l_written l)
          ~phase:(1 + ((pos + 1) * 2) + (if all_own then 1 else 0))
          ~mn
      else
        let level = if all_own then min (mn + 1) n else 0 in
        (* canonicalize the dead written-set of a just-terminated processor *)
        let written = if level >= n then 0 else l_written l in
        mk_local ~view ~level ~written ~phase:0 ~mn:0
    in
    set_local s p l'
  end

let initial_state inputs =
  Array.to_seqi inputs
  |> Seq.fold_left
       (fun s (p, input) ->
         if input < 1 || input > 3 then
           invalid_arg "Snapshot3: inputs must be in 1..3";
         set_local s p
           (mk_local ~view:(1 lsl (input - 1)) ~level:0 ~written:0 ~phase:0
              ~mn:0))
       0

(* Processor [p]'s output view, or -1 while it runs.  Views always hold
   the owner's input, so a real output is never negative. *)
let output_view s p =
  let l = get_local s p in
  if halted l then l_view l else -1

(* a ⊆ b or b ⊆ a as bitmasks; -1 (no output) relates to everything *)
let comparable a b =
  let c = a land b in
  c = a || c = b

let valid_output ~participants ~input o =
  o < 0 || (o land (1 lsl (input - 1)) <> 0 && o land lnot participants = 0)

(* The strong snapshot invariant on bitmasks: own input set, only
   participants, pairwise containment. *)
let invariant_ok inputs =
  let participants =
    Array.fold_left (fun acc i -> acc lor (1 lsl (i - 1))) 0 inputs
  in
  fun s ->
    let o0 = output_view s 0 and o1 = output_view s 1 and o2 = output_view s 2 in
    valid_output ~participants ~input:inputs.(0) o0
    && valid_output ~participants ~input:inputs.(1) o1
    && valid_output ~participants ~input:inputs.(2) o2
    && comparable o0 o1 && comparable o0 o2 && comparable o1 o2

(* -- cross-validation against the reference semantics ----------------------- *)

module Ref_protocol = Algorithms.Snapshot
module Ref_sys = Anonmem.System.Make (Algorithms.Snapshot)

(** Pack a reference-implementation state (its locals and registers),
    applying the same dead-variable canonicalization as {!step}
    (terminated processors' written-sets read as empty).  The cyclic
    cursor [next_write] is the written-set of its lower registers. *)
let pack cfg (locals : Algorithms.Snapshot.local array)
    (registers : Algorithms.Snapshot.value array) =
  let s = ref 0 in
  Array.iteri
    (fun p (l : Algorithms.Snapshot.local) ->
      let module C = Algorithms.Snapshot.Core in
      let view = Iset.fold (fun i acc -> acc lor (1 lsl (i - 1))) l.C.view 0 in
      let halted = Ref_protocol.next cfg l = None in
      let phase, mn =
        match l.C.phase with
        | C.Writing -> (0, 0)
        | C.Scanning sc ->
            (1 + (sc.C.pos * 2) + (if sc.C.all_own then 1 else 0), sc.C.min_level)
      in
      let packed =
        mk_local ~view ~level:l.C.level
          ~written:(if halted then 0 else (1 lsl l.C.next_write) - 1)
          ~phase
          ~mn:(if phase = 0 then 0 else mn)
      in
      s := set_local !s p packed)
    locals;
  Array.iteri
    (fun r (v : Algorithms.Snapshot.value) ->
      let view = Iset.fold (fun i acc -> acc lor (1 lsl (i - 1))) v.view 0 in
      s := set_reg !s r (mk_reg ~view ~level:v.level))
    registers;
  !s

let sigmas_of wiring =
  Array.init n (fun p -> Array.init m (fun i -> Anonmem.Wiring.phys wiring ~p i))

(** Run [runs] random executions, stepping the packed semantics (choice
    0) and the reference protocol in lockstep and comparing after every
    step.  Returns the number of steps compared; raises [Failure] on the
    first divergence. *)
let selfcheck ?(runs = 50) ?(max_steps = 2_000) () =
  let compared = ref 0 in
  let pack_ref (st : Ref_sys.state) =
    pack st.Ref_sys.cfg st.Ref_sys.locals st.Ref_sys.registers
  in
  for seed = 0 to runs - 1 do
    let rng = Rng.create ~seed in
    let wiring = Anonmem.Wiring.random rng ~n ~m in
    let inputs = [| 1 + Rng.int rng 3; 1 + Rng.int rng 3; 1 + Rng.int rng 3 |] in
    let cfg = Algorithms.Snapshot.standard ~n in
    let ref_state = Ref_sys.init ~cfg ~wiring ~inputs in
    let sigmas = sigmas_of wiring in
    let packed = ref (initial_state inputs) in
    if !packed <> pack_ref ref_state then
      failwith "Snapshot3.selfcheck: initial states differ";
    let steps = ref 0 in
    while !steps < max_steps && Ref_sys.enabled ref_state <> [] do
      let en = Ref_sys.enabled ref_state in
      let p = Rng.pick rng en in
      ignore (Ref_sys.step_in_place ref_state p);
      packed := step !packed p 0 sigmas.(p);
      incr steps;
      incr compared;
      if !packed <> pack_ref ref_state then
        failwith
          (Printf.sprintf
             "Snapshot3.selfcheck: divergence at seed %d step %d" seed !steps)
    done
  done;
  !compared

(* -- the DFS ----------------------------------------------------------------- *)

type stats = {
  states : int;
  transitions : int;
  terminals : int;
  max_depth : int;
}

(** Paths are the steps from the initial state, as (processor, choice). *)
type result =
  | Verified of stats
  | Invariant_violation of { state : int; path : (int * int) list; stats : stats }
  | Witness of { state : int; path : (int * int) list; stats : stats }
  | Cycle of { processors : int list; stats : stats }
  | Table_full of int

(* Open-addressing visited table.  Slots hold the packed state + 1 shifted
   left twice, with the DFS color in the low 2 bits (1 gray, 2 black);
   0 = empty.  Linear probing; the table never shrinks. *)
module Table = struct
  type t = {
    slots : int array;
    mask : int;
    shift : int;
    mutable count : int;
    limit : int;
  }

  let create ~log2_capacity =
    let cap = 1 lsl log2_capacity in
    {
      slots = Array.make cap 0;
      mask = cap - 1;
      shift = Sys.int_size - log2_capacity;
      count = 0;
      limit = cap * 7 / 10;
    }

  let clear t =
    if t.count > 0 then Array.fill t.slots 0 (Array.length t.slots) 0;
    t.count <- 0

  (* Fibonacci hashing of the packed state: the top bits of the product,
     which depend on every bit of the key (low product bits only see the
     low key bits, i.e. the first processors' locals). *)
  let slot_of t key = (key * 0x9E3779B97F4A7C1) lsr t.shift

  let rec probe t key i =
    let stored = t.slots.(i) in
    if stored = 0 then i
    else if stored lsr 2 = key + 1 then i
    else probe t key ((i + 1) land t.mask)

  let find_slot t key = probe t key (slot_of t key)
  let color t i = t.slots.(i) land 3

  let insert_gray t key i =
    t.slots.(i) <- ((key + 1) lsl 2) lor 1;
    t.count <- t.count + 1

  let blacken t i = t.slots.(i) <- t.slots.(i) land lnot 3 lor 2
  let full t = t.count >= t.limit
end

(* DFS frames: a stack of states beside a stack of
   meta = slot lsl 10 lor (entered_pc + 1) lsl 5 lor cursor, where a pc
   packs (processor lsl 2 lor choice) and the cursor walks the same
   encoding; a cursor >= [exhausted] means the frame has no steps left. *)
let exhausted = n lsl 2
let pc_of meta = ((meta lsr 5) land 31) - 1
let step_of_pc pc = (pc lsr 2, pc land 3)

(* The DFS proper, on a caller-owned (empty) table. *)
let dfs table ~write_order ?prune ?witness ~wiring ~inputs () =
  if Anonmem.Wiring.processors wiring <> n || Anonmem.Wiring.registers wiring <> m
  then invalid_arg "Snapshot3.check: need 3 processors and 3 registers";
  let sigmas = sigmas_of wiring in
  let invariant_ok = invariant_ok inputs in
  let st_stack = Vec.create () in
  let meta_stack = Vec.create () in
  let transitions = ref 0 and terminals = ref 0 and max_depth = ref 0 in
  let stats () =
    {
      states = table.Table.count;
      transitions = !transitions;
      terminals = !terminals;
      max_depth = !max_depth;
    }
  in
  let outcome = ref None in
  let path_to entered_pc =
    let rev = ref [] in
    Vec.iteri
      (fun _ meta ->
        let pc = pc_of meta in
        if pc >= 0 then rev := step_of_pc pc :: !rev)
      meta_stack;
    List.rev_append !rev (if entered_pc >= 0 then [ step_of_pc entered_pc ] else [])
  in
  let push state slot entered_pc =
    Table.insert_gray table state slot;
    if Option.is_none !outcome then
      if not (invariant_ok state) then
        outcome :=
          Some
            (Invariant_violation
               { state; path = path_to entered_pc; stats = stats () })
      else if match witness with Some f -> f state | None -> false then
        outcome :=
          Some (Witness { state; path = path_to entered_pc; stats = stats () });
    ignore (Vec.push st_stack state);
    ignore (Vec.push meta_stack ((slot lsl 10) lor ((entered_pc + 1) lsl 5)));
    if Vec.length st_stack > !max_depth then max_depth := Vec.length st_stack
  in
  let s0 = initial_state inputs in
  push s0 (Table.find_slot table s0) (-1);
  while Option.is_none !outcome && Vec.length st_stack > 0 do
    let top = Vec.length st_stack - 1 in
    let state = Vec.get st_stack top in
    let meta = Vec.get meta_stack top in
    let cursor = meta land 31 in
    if cursor >= exhausted then begin
      (* frame exhausted: terminal detection and blacken *)
      if
        halted (get_local state 0)
        && halted (get_local state 1)
        && halted (get_local state 2)
      then incr terminals;
      Table.blacken table (meta lsr 10);
      Vec.truncate st_stack top;
      Vec.truncate meta_stack top
    end
    else if cursor = 0 && match prune with Some f -> f state | None -> false
    then
      (* skip all successors of a pruned state *)
      Vec.set meta_stack top (meta lor 31)
    else begin
      let p = cursor lsr 2 and c = cursor land 3 in
      let k = choices write_order state p in
      (* advance past this choice, or on to the next processor *)
      Vec.set meta_stack top
        (meta - cursor + if c + 1 < k then cursor + 1 else (p + 1) lsl 2);
      if c < k then begin
        incr transitions;
        let s' = step state p c sigmas.(p) in
        let slot = Table.find_slot table s' in
        match Table.color table slot with
        | 0 ->
            if Table.full table then outcome := Some (Table_full table.Table.count)
            else push s' slot cursor
        | 1 ->
            (* back edge: cycle; collect the processors on the loop *)
            let pids = ref [ p ] in
            let i = ref top in
            while !i >= 0 && Vec.get st_stack !i <> s' do
              let pc = pc_of (Vec.get meta_stack !i) in
              if pc >= 0 then pids := (pc lsr 2) :: !pids;
              decr i
            done;
            outcome :=
              Some
                (Cycle
                   { processors = List.sort_uniq compare !pids; stats = stats () })
        | _ -> ()
      end
    end
  done;
  match !outcome with Some r -> r | None -> Verified (stats ())

(** Exhaustively check one wiring under [write_order] (default
    [Cyclic]).  [log2_capacity] sizes the visited table (default 2^28
    slots = 2 GiB, good for ~187M states).

    [prune] restricts exploration to states where it returns [false]
    (pruned states are recorded but not expanded); [witness] flags a
    target state — the search stops and reports it as {!Witness} with
    its path.  A state that breaks the snapshot invariant is reported as
    {!Invariant_violation} first.  These hooks turn the checker into the
    exhaustive witness search for the Section-8 non-atomicity claim (see
    {!find_nonatomic}). *)
let check ?(write_order = Cyclic) ?(log2_capacity = 28) ?prune ?witness
    ~wiring ~inputs () =
  dfs (Table.create ~log2_capacity) ~write_order ?prune ?witness ~wiring
    ~inputs ()

(** {!check} on each of [wirings] in turn, as a lazy sequence of
    (wiring, result).  The whole sweep shares one visited table,
    allocated when the first wiring is forced and cleared between
    wirings, so it never holds more than one table. *)
let check_each ?(write_order = Cyclic) ?(log2_capacity = 28) ?prune ?witness
    ~inputs wirings =
  let table = lazy (Table.create ~log2_capacity) in
  Seq.map
    (fun wiring ->
      let table = Lazy.force table in
      Table.clear table;
      (wiring, dfs table ~write_order ?prune ?witness ~wiring ~inputs ()))
    (List.to_seq wirings)

(* -- the Section-8 non-atomicity witness ------------------------------------ *)

(** The set of inputs present in memory, as a bitmask. *)
let memory_mask s = r_view (get_reg s 0) lor r_view (get_reg s 1) lor r_view (get_reg s 2)

type nonatomic_witness = {
  wiring : Anonmem.Wiring.t;
  culprit : int;
  target_mask : int;  (** bit [i] = input [i+1] *)
  path : (int * int) list;  (** (processor, choice) steps from the initial state *)
  states_explored : int;
}

(** What one candidate's search settled. *)
type nonatomic =
  | Nonatomic of nonatomic_witness
  | Refuted of { states : int }  (** no witness on any wiring; states summed *)
  | Undecided of { wiring : Anonmem.Wiring.t; states : int }
      (** the visited table filled at [states] on [wiring] *)
  | Unsafe of { wiring : Anonmem.Wiring.t; result : result }
      (** an [Invariant_violation] or [Cycle]: Figure 3 itself is broken *)

(** Exhaustively search one candidate [target_mask] over [wirings]:
    explore only states whose memory content differs from the target
    (pruning on equality) and stop at any state where a terminated
    processor's snapshot equals the target.  A hit proves the Section-8
    claim outright: along the whole witness execution the memory never
    contained exactly the returned set, and freezing the execution there
    keeps it that way forever.  The search stops at the first wiring
    that is not refuted. *)
let find_nonatomic ?write_order ?log2_capacity ~inputs ~target_mask ~wirings
    () =
  let within s p =
    let v = l_view (get_local s p) in
    v land target_mask = v
  in
  let prune s =
    memory_mask s = target_mask
    (* views only grow, so once no processor's view is contained in the
       target, no future output can equal it: cut the branch *)
    || not (within s 0 || within s 1 || within s 2)
  in
  let returns s p = output_view s p = target_mask in
  let witness s =
    memory_mask s <> target_mask && (returns s 0 || returns s 1 || returns s 2)
  in
  let states = ref 0 in
  let settled =
    check_each ?write_order ?log2_capacity ~prune ~witness ~inputs wirings
    |> Seq.find_map (fun (wiring, r) ->
           match r with
           | Verified st ->
               states := !states + st.states;
               None
           | Witness { state; path; stats } ->
               let culprit = List.find (returns state) [ 0; 1; 2 ] in
               Some
                 (Nonatomic
                    { wiring; culprit; target_mask; path; states_explored = stats.states })
           | Table_full states -> Some (Undecided { wiring; states })
           | (Invariant_violation _ | Cycle _) as result -> Some (Unsafe { wiring; result }))
  in
  match settled with Some outcome -> outcome | None -> Refuted { states = !states }
