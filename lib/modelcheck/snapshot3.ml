(** Specialized exhaustive checker for the 3-processor instance of the
    Figure-3 snapshot algorithm under the cyclic write order: the engine
    behind EXPERIMENTS C1's rotation-wiring row, whose ~10^8 states the
    generic explorer cannot hold on a small host.  Every other
    exhaustive search, Figure 3's nondeterministic write order included,
    runs on the generic engines ({!Explorer}).

    A whole system state packs into a single 54-bit integer:

    {v
    per processor (13 bits x 3):   per register (5 bits x 3):
      view       3 bits              view   3 bits
      level      2 bits              level  2 bits
      written    3 bits  (registers written this round)
      phase      3 bits  (0 = writing, 1 + pos*2 + all_own = scanning)
      min_level  2 bits
    v}

    A write takes the lowest unwritten register, the shipped
    implementation's cyclic order (written-sets 000, 001, 011 are its
    cursor positions 0, 1, 2).

    The visited set is an open-addressing table of packed states with a
    2-bit DFS color per slot (~8.2 bytes per state at 50% load), and the
    transition function works directly on the packed representation, so
    exploration allocates nothing on the hot path.  Wait-freedom is
    checked as acyclicity (DFS back edge), the safety invariant as in
    {!Core.snapshot_invariant}: all outputs contain the owner's input,
    only participating inputs, and are pairwise related by containment.

    Two sound canonicalizations quotient the space: [min_level] is pinned
    to 0 once a scan has diverged (as in the generic codec), and a
    terminated processor's written-set is pinned to 0 (it takes no
    further steps, so the set is dead state; the generic codec keeps
    it, which is why the generic counts are higher).

    [selfcheck] steps the packed semantics and the reference
    implementation in lockstep along random 3-processor executions and
    compares the packed states after every step. *)

open Repro_util

let n = 3
let m = 3

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

(** [step s p sigma] is the packed successor when processor [p], wired
    through [sigma] (array: private index -> physical register), takes
    its pending step, writing the lowest unwritten register in a write
    phase.  It is behaviourally identical to {!Algorithms.Snapshot}
    (checked by {!selfcheck}). *)
let step s p sigma =
  let l = get_local s p in
  let phase = l_phase l in
  if phase = 0 then begin
    let i = Bits.ctz (lnot (l_written l) land all_written) in
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
    let mn = if all_own then Int.min (l_min l) (r_level v) else 0 in
    let l' =
      if pos + 1 < m then
        mk_local ~view ~level:(l_level l) ~written:(l_written l)
          ~phase:(1 + ((pos + 1) * 2) + (if all_own then 1 else 0))
          ~mn
      else
        let level = if all_own then Int.min (mn + 1) n else 0 in
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
    (terminated processors' written-sets read as empty). *)
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
          ~written:(if halted then 0 else l.C.written)
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

(** Run [runs] random executions, stepping the packed semantics and the
    reference protocol in lockstep and comparing after every
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
      packed := step !packed p sigmas.(p);
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

(** A verdict only: the generic engines explain a failure
    ({!Explorer.Make.explore} on the same wiring gives a minimal trace). *)
type result =
  | Verified of stats
  | Invariant_violation of { state : int; stats : stats }
  | Cycle of stats  (** a DFS back edge: wait-freedom fails *)
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
   meta = slot lsl 2 lor cursor, where the cursor is the next processor
   to step; a cursor of [n] means the frame has no steps left. *)

(* The DFS proper, on a caller-owned (empty) table. *)
let dfs table ~wiring ~inputs =
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
  let push state slot =
    Table.insert_gray table state slot;
    if Option.is_none !outcome && not (invariant_ok state) then
      outcome := Some (Invariant_violation { state; stats = stats () });
    ignore (Vec.push st_stack state);
    ignore (Vec.push meta_stack (slot lsl 2));
    if Vec.length st_stack > !max_depth then max_depth := Vec.length st_stack
  in
  let s0 = initial_state inputs in
  push s0 (Table.find_slot table s0);
  while Option.is_none !outcome && Vec.length st_stack > 0 do
    let top = Vec.length st_stack - 1 in
    let state = Vec.get st_stack top in
    let meta = Vec.get meta_stack top in
    let p = meta land 3 in
    if p >= n then begin
      (* frame exhausted: terminal detection and blacken *)
      if
        halted (get_local state 0)
        && halted (get_local state 1)
        && halted (get_local state 2)
      then incr terminals;
      Table.blacken table (meta lsr 2);
      Vec.truncate st_stack top;
      Vec.truncate meta_stack top
    end
    else begin
      Vec.set meta_stack top (meta + 1);
      if not (halted (get_local state p)) then begin
        incr transitions;
        let s' = step state p sigmas.(p) in
        let slot = Table.find_slot table s' in
        match Table.color table slot with
        | 0 ->
            if Table.full table then outcome := Some (Table_full table.Table.count)
            else push s' slot
        | 1 -> outcome := Some (Cycle (stats ()))
        | _ -> ()
      end
    end
  done;
  match !outcome with Some r -> r | None -> Verified (stats ())

(** Exhaustively check one wiring.  [log2_capacity] sizes the visited
    table (default 2^28 slots = 2 GiB, good for ~187M states). *)
let check ?(log2_capacity = 28) ~wiring ~inputs () =
  dfs (Table.create ~log2_capacity) ~wiring ~inputs

(** {!check} on each of [wirings] in turn, as a lazy sequence of
    (wiring, result).  The whole sweep shares one visited table,
    allocated when the first wiring is forced and cleared between
    wirings, so it never holds more than one table. *)
let check_each ?(log2_capacity = 28) ~inputs wirings =
  let table = lazy (Table.create ~log2_capacity) in
  Seq.map
    (fun wiring ->
      let table = Lazy.force table in
      Table.clear table;
      (wiring, dfs table ~wiring ~inputs))
    (List.to_seq wirings)
