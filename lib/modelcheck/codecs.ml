(** {!Explorer.CHECKABLE} instances: fixed-width byte codecs for the
    finite-state protocols of the library.

    The codecs pack views as bitmasks, so they support input values in
    [0..7] — ample for exhaustive exploration, which is only feasible for a
    handful of processors anyway.  All fields of the protocols' local
    states are small non-negative integers; each occupies one byte of the
    wide key, and each codec declares, per byte, how many low bits a run
    can set ([local_bits], [value_bits]), from [cfg] and the run's inputs:
    the engines store keys packed to those widths ({!Key_layout}). *)

open Repro_util

let bits = Key_layout.bits_for
let max_input inputs = Array.fold_left Int.max 0 inputs

(* A view is a bitmask of input values. *)
let view_bits inputs = if Array.length inputs = 0 then 0 else max_input inputs + 1

let put b off x =
  if x < 0 || x > 255 then invalid_arg "Codecs: field out of byte range";
  Bytes.set b off (Char.chr x)

let get b off = Char.code (Bytes.get b off)

(** The moves of a protocol that is a plain step machine, one per live
    processor (the operation [next] returns), and the key layout its
    codec has had since checkpoints began. *)
module Step_machine (P : Anonmem.Protocol.S) = struct
  let choices _ _ = 1
  let max_choices _ = 1
  let write_choice _ _ _ = invalid_arg (P.name ^ ": a step machine has one move")
  let apply_write_to cfg l ~reg:_ = P.apply_write cfg l
  let key_format = ""
end

(* The layout of the snapshot engine's locals since the cyclic cursor
   became a written-set: cursor [k] is now the byte [2^k - 1]. *)
let written_set_format = "written-set"

(** The Figure-3 snapshot algorithm. *)
module Snapshot = struct
  include Algorithms.Snapshot
  module C = Algorithms.Snapshot.Core

  (* The engines branch on Figure 3's write choice, so an [Any]
     configuration is theirs to explore. *)
  let init = C.init
  let choices = C.choices

  let max_choices (c : cfg) =
    match c.write_order with Cyclic -> 1 | Any -> c.m

  let write_choice = C.write_choice
  let apply_write_to = C.apply_write_to
  let key_format = written_set_format

  let value_width _ = 2

  (* view, level in [0 .. n] *)
  let value_bits (c : cfg) inputs = [| view_bits inputs; bits c.n |]

  (* view, level, written-set, phase ([1 + 2 pos + all_own], pos < m),
     min_level in [0 .. n] *)
  let local_bits (c : cfg) inputs =
    [| view_bits inputs; bits c.n; c.m; bits (2 * c.m); bits c.n |]

  let encode_value _ (v : value) b off =
    put b off (Iset.to_bits v.view);
    put b (off + 1) v.level

  let decode_value _ b off : value =
    { view = Iset.of_bits (get b off); level = get b (off + 1) }

  let local_width _ = 5

  let encode_local _ (l : local) b off =
    put b off (Iset.to_bits l.C.view);
    put b (off + 1) l.C.level;
    put b (off + 2) l.C.written;
    match l.C.phase with
    | C.Writing ->
        put b (off + 3) 0;
        put b (off + 4) 0
    | C.Scanning s ->
        put b (off + 3) (1 + (s.C.pos * 2) + (if s.C.all_own then 1 else 0));
        put b (off + 4) s.C.min_level

  let decode_local _ b off : local =
    let phase =
      match get b (off + 3) with
      | 0 -> C.Writing
      | k ->
          C.Scanning
            {
              C.pos = (k - 1) / 2;
              all_own = (k - 1) land 1 = 1;
              min_level = get b (off + 4);
            }
    in
    {
      C.view = Iset.of_bits (get b off);
      level = get b (off + 1);
      written = get b (off + 2);
      phase;
    }
end

(** The Figure-1 write–scan loop (no outputs; explored for its cycle
    structure). *)
module Write_scan = struct
  include Algorithms.Write_scan
  include Step_machine (Algorithms.Write_scan)
  module W = Algorithms.Write_scan

  let value_width _ = 1
  let encode_value _ v b off = put b off (Iset.to_bits v)
  let decode_value _ b off = Iset.of_bits (get b off)
  let local_width _ = 3
  let value_bits _ inputs = [| view_bits inputs |]

  (* view, write cursor below m, phase [1 + pos] *)
  let local_bits (c : cfg) inputs = [| view_bits inputs; bits (c.m - 1); bits c.m |]

  let encode_local _ (l : local) b off =
    put b off (Iset.to_bits l.W.view);
    put b (off + 1) l.W.next_write;
    match l.W.phase with
    | W.Writing -> put b (off + 2) 0
    | W.Scanning s -> put b (off + 2) (1 + s.W.pos)

  let decode_local _ b off : local =
    let phase =
      match get b (off + 2) with
      | 0 -> W.Writing
      | k -> W.Scanning { W.pos = k - 1 }
    in
    {
      W.view = Iset.of_bits (get b off);
      next_write = get b (off + 1);
      phase;
    }
end

(** The broken double-collect baseline, explored to hunt for task
    violations mechanically. *)
module Double_collect = struct
  include Algorithms.Double_collect
  include Step_machine (Algorithms.Double_collect)
  module D = Algorithms.Double_collect

  let value_width _ = 1
  let encode_value _ v b off = put b off (Iset.to_bits v)
  let decode_value _ b off = Iset.of_bits (get b off)
  let local_width _ = 4
  let value_bits _ inputs = [| view_bits inputs |]

  (* view, write cursor below m, streak (a processor halts at 2), phase
     [1 + 2 pos + all_own] *)
  let local_bits (c : cfg) inputs =
    [| view_bits inputs; bits (c.m - 1); bits 2; bits (2 * c.m) |]

  let encode_local _ (l : local) b off =
    put b off (Iset.to_bits l.D.view);
    put b (off + 1) l.D.next_write;
    put b (off + 2) l.D.streak;
    match l.D.phase with
    | D.Writing -> put b (off + 3) 0
    | D.Scanning s ->
        put b (off + 3) (1 + (s.D.pos * 2) + (if s.D.all_own then 1 else 0))

  let decode_local _ b off : local =
    let phase =
      match get b (off + 3) with
      | 0 -> D.Writing
      | k ->
          D.Scanning { D.pos = (k - 1) / 2; all_own = (k - 1) land 1 = 1 }
    in
    {
      D.view = Iset.of_bits (get b off);
      next_write = get b (off + 1);
      streak = get b (off + 2);
      phase;
    }
end

(** The Figure-5 consensus algorithm, for {e bounded} exploration: the
    state space is infinite (timestamps grow without bound), so exploration
    must be cut off with [stop_expansion] once a timestamp exceeds a bound;
    the codec supports values in [1..max_value] and timestamps in
    [0..max_ts] with [max_value * (max_ts + 1) <= 24].

    The [rounds] diagnostic counter is deliberately {e not} encoded (it
    never influences behaviour); decoding yields [rounds = 0], which
    quotients the state space by a ghost variable. *)
module Consensus = struct
  include Algorithms.Consensus
  include Step_machine (Algorithms.Consensus)

  let key_format = written_set_format
  module C = Algorithms.Consensus
  module SC = Algorithms.Consensus.Snap.Core

  let max_value = 3
  let max_ts = 7

  let pair_index (v, t) =
    if v < 1 || v > max_value || t < 0 || t > max_ts then
      invalid_arg "Codecs.Consensus: (value, timestamp) out of bounds";
    ((v - 1) * (max_ts + 1)) + t

  let pair_of_index i = ((i / (max_ts + 1)) + 1, i mod (max_ts + 1))

  let pset_bits s =
    C.Pset.fold (fun p acc -> acc lor (1 lsl pair_index p)) s 0

  let pset_of_bits bits =
    let rec go i acc =
      if i >= max_value * (max_ts + 1) then acc
      else
        go (i + 1)
          (if bits land (1 lsl i) <> 0 then C.Pset.add (pair_of_index i) acc
           else acc)
    in
    go 0 C.Pset.empty

  let put3 b off x =
    put b off (x land 0xff);
    put b (off + 1) ((x lsr 8) land 0xff);
    put b (off + 2) ((x lsr 16) land 0xff)

  let get3 b off = get b off lor (get b (off + 1) lsl 8) lor (get b (off + 2) lsl 16)

  let value_width _ = 4

  (* The 24-bit pair set over its three bytes, when values run up to
     the largest input: pair indices stay below [vmax * (max_ts + 1)]. *)
  let view_bytes inputs =
    let total = Int.min max_value (max_input inputs) * (max_ts + 1) in
    Array.init 3 (fun i -> Int.max 0 (Int.min 8 (total - (8 * i))))

  let value_bits (c : cfg) inputs = Array.append (view_bytes inputs) [| bits c.n |]

  (* pref, ts, decided + 1, then the snapshot local as in [Snapshot] *)
  let local_bits (c : cfg) inputs =
    Array.concat
      [
        [| bits max_value; bits max_ts; bits (max_value + 1) |];
        view_bytes inputs;
        [| bits c.n; c.m; bits (2 * c.m); bits c.n |];
      ]

  let encode_value _ (v : value) b off =
    put3 b off (pset_bits v.SC.view);
    put b (off + 3) v.SC.level

  let decode_value _ b off : value =
    { SC.view = pset_of_bits (get3 b off); level = get b (off + 3) }

  (* pref, ts, decided(+1, 0 = none), snap: view(3) level nw phase min *)
  let local_width _ = 10

  let encode_local _ (l : local) b off =
    put b off l.C.pref;
    put b (off + 1) l.C.ts;
    put b (off + 2) (match l.C.decided with None -> 0 | Some v -> v + 1);
    let s = l.C.snap in
    put3 b (off + 3) (pset_bits s.SC.view);
    put b (off + 6) s.SC.level;
    put b (off + 7) s.SC.written;
    (match s.SC.phase with
    | SC.Writing ->
        put b (off + 8) 0;
        put b (off + 9) 0
    | SC.Scanning sc ->
        put b (off + 8) (1 + (sc.SC.pos * 2) + (if sc.SC.all_own then 1 else 0));
        put b (off + 9) sc.SC.min_level)

  let decode_local _ b off : local =
    let phase =
      match get b (off + 8) with
      | 0 -> SC.Writing
      | k ->
          SC.Scanning
            {
              SC.pos = (k - 1) / 2;
              all_own = (k - 1) land 1 = 1;
              min_level = get b (off + 9);
            }
    in
    {
      C.input = get b off;
      (* the original input is immaterial after initialization; decode it
         as the current preference, which keeps the codec total *)
      pref = get b off;
      ts = get b (off + 1);
      decided = (match get b (off + 2) with 0 -> None | v -> Some (v - 1));
      rounds = 0;
      snap =
        {
          SC.view = pset_of_bits (get3 b (off + 3));
          level = get b (off + 6);
          written = get b (off + 7);
          phase;
        };
    }
end

(** The Figure-4 renaming algorithm: the snapshot core plus the immutable
    group identifier. *)
module Renaming = struct
  include Algorithms.Renaming
  include Step_machine (Algorithms.Renaming)

  let key_format = written_set_format
  module R = Algorithms.Renaming

  let value_width = Snapshot.value_width
  let encode_value = Snapshot.encode_value
  let decode_value = Snapshot.decode_value
  let local_width cfg = 1 + Snapshot.local_width cfg
  let value_bits = Snapshot.value_bits

  (* the group is the input *)
  let local_bits cfg inputs =
    Array.append [| bits (max_input inputs) |] (Snapshot.local_bits cfg inputs)

  let encode_local cfg (l : local) b off =
    put b off l.R.group;
    Snapshot.encode_local cfg l.R.core b (off + 1)

  let decode_local cfg b off : local =
    { R.group = get b off; core = Snapshot.decode_local cfg b (off + 1) }
end

(** The Raynal–Taubenfeld-style mutex: claim values are identities, local
    views are positional buffers of one byte per register.  Supports
    m <= 8 registers (release sets pack into one byte) — ample for the
    feasibility grid. *)
module Rt_mutex = struct
  include Algorithms.Rt_mutex
  include Step_machine (Algorithms.Rt_mutex)
  module M = Algorithms.Rt_mutex

  let check_m cfg =
    if M.registers cfg > 8 then
      invalid_arg "Codecs.Rt_mutex: at most 8 registers"

  let value_width _ = 1

  (* 0 = free; odd = claim, even > 0 = seal, identity in the upper bits *)
  let value_byte : value -> int = function
    | M.Free -> 0
    | M.Claim id -> (id * 2) + 1
    | M.Seal id -> (id * 2) + 2

  let byte_value k : value =
    if k = 0 then M.Free
    else if k land 1 = 1 then M.Claim ((k - 1) / 2)
    else M.Seal ((k - 2) / 2)

  let encode_value _ (v : value) b off = put b off (value_byte v)
  let decode_value _ b off : value = byte_value (get b off)

  (* Identities are the inputs. *)
  let value_bits _ inputs = [| bits ((2 * max_input inputs) + 2) |]

  (* The phase's aux byte: a register index or [2 pos + dirty] (pos at
     most m), or a release mask. *)
  let aux_bits m = bits (Int.max ((2 * m) + 1) ((1 lsl m) - 1))

  (* The collect summary: mine mask, first_free + 1, then m rival
     (id + 1, count) pairs. *)
  let summary_bits m inputs =
    Array.append [| m; bits m |]
      (Array.init (2 * m) (fun i ->
           if i land 1 = 0 then bits (max_input inputs + 1) else bits m))

  let local_bits cfg inputs =
    let m = M.registers cfg in
    Array.append [| bits (max_input inputs); bits 6; aux_bits m |] (summary_bits m inputs)

  (* id, phase tag, aux, collect summary: mine mask, first_free + 1,
     then (id + 1, count) pairs for the rival counts (ascending ids, the
     canonical order the protocol maintains, zero-terminated) *)
  let local_width cfg =
    check_m cfg;
    5 + (2 * M.registers cfg)

  let mask_of_list l = List.fold_left (fun m i -> m lor (1 lsl i)) 0 l

  let list_of_mask m =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (if m land (1 lsl i) <> 0 then i :: acc else acc)
    in
    go 7 []

  let encode_others others b off =
    List.iteri
      (fun i (id, k) ->
        put b (off + (2 * i)) (id + 1);
        put b (off + (2 * i) + 1) k)
      others

  let decode_others ~m b off =
    let rec go i =
      if i >= m then []
      else
        match get b (off + (2 * i)) with
        | 0 -> []
        | id -> (id - 1, get b (off + (2 * i) + 1)) :: go (i + 1)
    in
    go 0

  let encode_local cfg (l : local) b off =
    check_m cfg;
    let m = M.registers cfg in
    put b off l.M.id;
    for i = 3 to 4 + (2 * m) do
      put b (off + i) 0
    done;
    match l.M.phase with
    | M.Collecting { pos; mine; others; first_free } ->
        put b (off + 1) 0;
        put b (off + 2) pos;
        put b (off + 3) mine;
        put b (off + 4) (first_free + 1);
        encode_others others b (off + 5)
    | M.Claiming { target } ->
        put b (off + 1) 1;
        put b (off + 2) target
    | M.Releasing { mine } ->
        put b (off + 1) 2;
        put b (off + 2) (mask_of_list mine)
    | M.Sealing { pos } ->
        put b (off + 1) 3;
        put b (off + 2) pos
    | M.Auditing { pos; dirty } ->
        put b (off + 1) 4;
        put b (off + 2) ((pos * 2) + if dirty then 1 else 0)
    | M.Unlocking { pos; dirty } ->
        put b (off + 1) 5;
        put b (off + 2) ((pos * 2) + if dirty then 1 else 0)
    | M.Done o ->
        put b (off + 1) 6;
        put b (off + 2) (match o with M.Cs_clean -> 0 | M.Cs_intruded -> 1)

  let decode_local cfg b off : local =
    let id = get b off in
    let aux = get b (off + 2) in
    let phase =
      match get b (off + 1) with
      | 0 ->
          M.Collecting
            {
              pos = aux;
              mine = get b (off + 3);
              first_free = get b (off + 4) - 1;
              others = decode_others ~m:(M.registers cfg) b (off + 5);
            }
      | 1 -> M.Claiming { target = aux }
      | 2 -> M.Releasing { mine = list_of_mask aux }
      | 3 -> M.Sealing { pos = aux }
      | 4 -> M.Auditing { pos = aux / 2; dirty = aux land 1 = 1 }
      | 5 -> M.Unlocking { pos = aux / 2; dirty = aux land 1 = 1 }
      | _ -> M.Done (if aux = 0 then M.Cs_clean else M.Cs_intruded)
    in
    { M.id; phase }
end

(** The wait-free weak leader election. *)
module Weak_leader = struct
  include Algorithms.Weak_leader
  include Step_machine (Algorithms.Weak_leader)
  module W = Algorithms.Weak_leader

  let value_width _ = 1

  let encode_value _ (v : value) b off =
    put b off (match v with None -> 0 | Some id -> id + 1)

  let decode_value _ b off : value =
    match get b off with 0 -> None | k -> Some (k - 1)

  let local_width cfg = 3 + W.registers cfg
  let value_bits _ inputs = [| bits (max_input inputs + 1) |]

  (* id, phase tag, aux (a register index or the outcome), then the
     collected values *)
  let local_bits cfg inputs =
    let m = W.registers cfg in
    Array.append
      [| bits (max_input inputs); bits 2; bits m |]
      (Array.make m (bits (max_input inputs + 1)))

  let encode_local cfg (l : local) b off =
    let m = W.registers cfg in
    put b off l.W.id;
    for i = 0 to m - 1 do
      put b (off + 3 + i) 0
    done;
    match l.W.phase with
    | W.Collecting { pos; acc } ->
        put b (off + 1) 0;
        put b (off + 2) pos;
        List.iteri
          (fun i v ->
            put b
              (off + 3 + (pos - 1 - i))
              (match v with None -> 0 | Some id -> id + 1))
          acc
    | W.Claiming { target } ->
        put b (off + 1) 1;
        put b (off + 2) target
    | W.Done o ->
        put b (off + 1) 2;
        put b (off + 2) (match o with W.Follower -> 0 | W.Leader -> 1)

  let decode_local _ b off : local =
    let id = get b off in
    let aux = get b (off + 2) in
    let phase =
      match get b (off + 1) with
      | 0 ->
          let pos = aux in
          let acc = ref [] in
          for i = 0 to pos - 1 do
            acc :=
              (match get b (off + 3 + i) with 0 -> None | k -> Some (k - 1))
              :: !acc
          done;
          W.Collecting { pos; acc = !acc }
      | 1 -> W.Claiming { target = aux }
      | _ -> W.Done (if aux = 0 then W.Follower else W.Leader)
    in
    { W.id; phase }
end

(** Mutex-based desanonymization: register values carry a claim owner and
    a {!Algorithms.Named_memory} ledger (one byte per name slot; names
    stay in [1..n] in the crash-stop and fault-free executions the
    checkers explore). *)
module Naming = struct
  include Algorithms.Naming
  include Step_machine (Algorithms.Naming)
  module N = Algorithms.Naming
  module L = Algorithms.Named_memory

  let check_m cfg =
    if N.registers cfg > 8 then invalid_arg "Codecs.Naming: at most 8 registers"

  let encode_ledger cfg (ledger : L.t) b off =
    let n = N.processors cfg in
    for k = 0 to n - 1 do
      put b (off + k) 0
    done;
    List.iter
      (fun (c : L.cell) ->
        if c.L.name < 1 || c.L.name > n then
          invalid_arg "Codecs.Naming: name out of range";
        put b (off + c.L.name - 1) (c.L.owner + 1))
      ledger

  let decode_ledger cfg b off : L.t =
    let n = N.processors cfg in
    let rec go k acc =
      if k < 1 then acc
      else
        go (k - 1)
          (match get b (off + k - 1) with
          | 0 -> acc
          | o -> { L.name = k; owner = o - 1 } :: acc)
    in
    go n []

  let value_width cfg = 1 + N.processors cfg

  (* An owner + 1 per ledger name; identities are the inputs. *)
  let ledger_bits cfg inputs = Array.make (N.processors cfg) (bits (max_input inputs + 1))

  let value_bits cfg inputs =
    Array.append [| bits (max_input inputs + 1) |] (ledger_bits cfg inputs)

  (* id, know ledger, phase tag, aux (a register index, a release mask,
     [16 pos + name] while flooding, or the name), then the collect
     summary of [Rt_mutex] *)
  let local_bits cfg inputs =
    let m = N.registers cfg in
    Array.concat
      [
        [| bits (max_input inputs) |];
        ledger_bits cfg inputs;
        [| bits 4; bits (Int.max ((1 lsl m) - 1) ((16 * m) + 15)) |];
        Rt_mutex.summary_bits m inputs;
      ]

  let encode_value cfg (v : value) b off =
    put b off (match v.N.owner with None -> 0 | Some id -> id + 1);
    encode_ledger cfg v.N.ledger b (off + 1)

  let decode_value cfg b off : value =
    {
      N.owner = (match get b off with 0 -> None | k -> Some (k - 1));
      ledger = decode_ledger cfg b (off + 1);
    }

  (* id, know ledger, phase tag, aux, collect summary (mine mask,
     first_free + 1, rival-count pairs) — same layout as Rt_mutex *)
  let local_width cfg =
    check_m cfg;
    5 + N.processors cfg + (2 * N.registers cfg)

  let encode_local cfg (l : local) b off =
    check_m cfg;
    let n = N.processors cfg and m = N.registers cfg in
    put b off l.N.id;
    encode_ledger cfg l.N.know b (off + 1);
    let toff = off + 1 + n in
    for i = 2 to 3 + (2 * m) do
      put b (toff + i) 0
    done;
    match l.N.phase with
    | N.Collecting { pos; mine; others; first_free } ->
        put b toff 0;
        put b (toff + 1) pos;
        put b (toff + 2) mine;
        put b (toff + 3) (first_free + 1);
        Rt_mutex.encode_others others b (toff + 4)
    | N.Claiming { target } ->
        put b toff 1;
        put b (toff + 1) target
    | N.Releasing { mine } ->
        put b toff 2;
        put b (toff + 1) (Rt_mutex.mask_of_list mine)
    | N.Flooding { pos; name } ->
        put b toff 3;
        put b (toff + 1) ((pos * 16) + name)
    | N.Done name ->
        put b toff 4;
        put b (toff + 1) name

  let decode_local cfg b off : local =
    let n = N.processors cfg in
    let id = get b off in
    let know = decode_ledger cfg b (off + 1) in
    let toff = off + 1 + n in
    let aux = get b (toff + 1) in
    let phase =
      match get b toff with
      | 0 ->
          N.Collecting
            {
              pos = aux;
              mine = get b (toff + 2);
              first_free = get b (toff + 3) - 1;
              others = Rt_mutex.decode_others ~m:(N.registers cfg) b (toff + 4);
            }
      | 1 -> N.Claiming { target = aux }
      | 2 -> N.Releasing { mine = Rt_mutex.list_of_mask aux }
      | 3 -> N.Flooding { pos = aux / 16; name = aux mod 16 }
      | _ -> N.Done aux
    in
    { N.id; know; phase }
end
