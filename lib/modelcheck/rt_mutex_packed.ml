(** Single-word packed explorer for {!Algorithms.Rt_mutex} — the clean-cell
    engine of the feasibility map.

    The generic byte-codec {!Explorer} tops out around 2·10⁵ states/s on
    the mutex: every transition allocates fresh local records, encodes a
    ~50-byte key and hashes it.  A clean feasibility cell must sweep
    {e every} wiring class — 2 467 classes of ~7·10⁶ states each at
    (n = 3, m = 5) — which puts the map's flagship cell weeks out of
    reach at that rate.  This module is the {!Snapshot3} move replayed
    for the mutex: after the collect compression (see
    {!Algorithms.Rt_mutex.phase}) a whole system state fits one OCaml
    int, and every protocol transition becomes two array reads.

    Packing.  Register values at n ≤ 3 range over
    [Free | Claim id | Seal id] with at most three identities — seven
    codes, three bits per register, [3m] low bits for the whole memory.
    Each processor's reachable local phases are enumerated up front by
    closing {!Algorithms.Rt_mutex.apply_read}/[apply_write] over all
    value codes (a couple of thousand phases at m = 5) and interned into
    dense indices; the system state packs the registers in the low [3m]
    bits and each processor's phase index in its own power-of-two bit
    field above them (~48 bits in all at (3, 5)).  Transitions never
    re-encode: a read adds [(rsucc - l) << off_p], a write additionally
    masks three register bits — no divisions anywhere on the hot path.

    The sweep is one iterative Tarjan DFS over the implicit graph: safety
    (two processors in {!Algorithms.Rt_mutex.in_cs}, or any
    [Cs_intruded] audit — exactly the generic engine's
    [mutex_invariant], which also subsumes the terminal
    {!Tasks.Mutex_task} oracle) is checked as each state is interned, and
    deadlock-freedom as each SCC pops: an SCC with an internal edge is a
    fair cycle iff every non-halted processor of its states takes some
    step inside it — the same condition as {!Explorer.Make.fair_lasso}
    (processor liveness is constant across an SCC because halting is
    absorbing).  On a clean wiring the visited count equals the generic
    engine's state count exactly: same initial state, same step relation,
    same closure — the parity is asserted by the differential tests.

    The engine returns {!verdict} only; callers wanting a concrete
    counterexample re-run the generic explorer on the offending wiring
    (violating wirings are cheap — exploration stops at the violation). *)

open Algorithms

type verdict =
  | Clean of { states : int }
      (** swept exhaustively, no violation *)
  | Breach  (** mutual-exclusion invariant or audit tripwire violated *)
  | Fair_cycle  (** deadlock: a fair SCC is reachable *)
  | Exhausted of { reason : Governor.reason; states : int }
      (** a resource governor tripped; resumable when a checkpoint
          policy was in force *)
  | Unsupported
      (** shape outside the packed envelope (n > 3, or the mixed-radix
          word would overflow); fall back to the generic engine *)

(* Per-processor transition tables over interned local phases. *)
type ptab = {
  count : int;
  kind : int array;  (* 0 = read, 1 = write, 2 = halted *)
  reg : int array;  (* private register index of the pending access *)
  wval : int array;  (* value code written (kind 1) *)
  rsucc : int array;  (* [l * nv + v] -> interned successor after read *)
  wsucc : int array;  (* [l] -> interned successor after write *)
  cs : bool array;  (* in the critical section (Sealing | Auditing) *)
  bad : bool array;  (* halted with a tripped audit (Done Cs_intruded) *)
}

let build_ptab cfg ~inputs p =
  let id = inputs.(p) in
  let n = Array.length inputs in
  let nv = 1 + (2 * n) in
  let value_of_code c =
    if c = 0 then Rt_mutex.Free
    else if c land 1 = 1 then Rt_mutex.Claim inputs.((c - 1) / 2)
    else Rt_mutex.Seal inputs.((c - 1) / 2)
  in
  let code_of_value v =
    let slot q =
      let rec go k = if inputs.(k) = q then k else go (k + 1) in
      go 0
    in
    match v with
    | Rt_mutex.Free -> 0
    | Rt_mutex.Claim q -> 1 + (2 * slot q)
    | Rt_mutex.Seal q -> 2 + (2 * slot q)
  in
  (* Close the per-processor phase space under all readable values. *)
  let tbl = Hashtbl.create 1024 in
  let rev = ref [] and cnt = ref 0 in
  let pending = Queue.create () in
  let intern ph =
    match Hashtbl.find_opt tbl ph with
    | Some i -> i
    | None ->
        let i = !cnt in
        incr cnt;
        Hashtbl.add tbl ph i;
        rev := ph :: !rev;
        Queue.add ph pending;
        i
  in
  ignore (intern Rt_mutex.fresh_collect);
  while not (Queue.is_empty pending) do
    let ph = Queue.pop pending in
    let l = { Rt_mutex.id; phase = ph } in
    match Rt_mutex.next cfg l with
    | None -> ()
    | Some (Anonmem.Protocol.Read i) ->
        for c = 0 to nv - 1 do
          ignore
            (intern (Rt_mutex.apply_read cfg l ~reg:i (value_of_code c)).phase)
        done
    | Some (Anonmem.Protocol.Write _) ->
        ignore (intern (Rt_mutex.apply_write cfg l).phase)
  done;
  let phases = Array.of_list (List.rev !rev) in
  let count = Array.length phases in
  let t =
    {
      count;
      kind = Array.make count 2;
      reg = Array.make count 0;
      wval = Array.make count 0;
      rsucc = Array.make (count * nv) 0;
      wsucc = Array.make count 0;
      cs = Array.make count false;
      bad = Array.make count false;
    }
  in
  Array.iteri
    (fun i ph ->
      let l = { Rt_mutex.id; phase = ph } in
      t.cs.(i) <- Rt_mutex.in_cs l;
      t.bad.(i) <- Rt_mutex.output cfg l = Some Rt_mutex.Cs_intruded;
      match Rt_mutex.next cfg l with
      | None -> t.kind.(i) <- 2
      | Some (Anonmem.Protocol.Read r) ->
          t.kind.(i) <- 0;
          t.reg.(i) <- r;
          for c = 0 to nv - 1 do
            t.rsucc.((i * nv) + c) <-
              Hashtbl.find tbl
                (Rt_mutex.apply_read cfg l ~reg:r (value_of_code c)).phase
          done
      | Some (Anonmem.Protocol.Write (r, v)) ->
          t.kind.(i) <- 1;
          t.reg.(i) <- r;
          t.wval.(i) <- code_of_value v;
          t.wsucc.(i) <- Hashtbl.find tbl (Rt_mutex.apply_write cfg l).phase)
    phases;
  t

(* Growable int vector. *)
module Vec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 4096 0; len = 0 }
  let reset v = v.len <- 0

  let push v x =
    if v.len = Array.length v.a then begin
      let a = Array.make (2 * v.len) 0 in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = Array.unsafe_get v.a i
  let set v i x = Array.unsafe_set v.a i x
end

(* Open-addressing packed-state -> dense-id map; -1 marks empty slots
   (packed states are non-negative).  Key and id sit in adjacent words
   of one array so a probe costs a single cache line; multiplicative
   hashing, linear probing, growth at 50 % load from a small start, so
   a table costs what its space needs. *)
module Itab = struct
  type t = { mutable a : int array; mutable mask : int; mutable size : int }

  let create () =
    let cap = 1 lsl 12 in
    { a = Array.make (2 * cap) (-1); mask = cap - 1; size = 0 }

  (* Top-level so probing allocates nothing (an inner closure would cost
     a minor-heap block per lookup — measurably dominant at 3 lookups
     per explored state). *)
  let rec probe a mask k i =
    let key = Array.unsafe_get a (2 * i) in
    if key = -1 || key = k then i else probe a mask k ((i + 1) land mask)

  let slot t k =
    let h = k * 0x2545F4914F6CDD1D land max_int in
    probe t.a t.mask k ((h lxor (h lsr 29)) land t.mask)

  let grow t =
    let oa = t.a in
    let cap = Array.length oa in
    t.a <- Array.make (2 * cap) (-1);
    t.mask <- cap - 1;
    let i = ref 0 in
    while !i < cap do
      let k = oa.(!i) in
      if k >= 0 then begin
        let s = slot t k in
        t.a.(2 * s) <- k;
        t.a.((2 * s) + 1) <- oa.(!i + 1)
      end;
      i := !i + 2
    done

  let reset t =
    Array.fill t.a 0 (Array.length t.a) (-1);
    t.size <- 0

  (* Dense id of [k], or [-1 - id] on first insertion. *)
  let find_or_add t k id =
    let s = slot t k in
    if Array.unsafe_get t.a (2 * s) = k then Array.unsafe_get t.a ((2 * s) + 1)
    else begin
      t.a.(2 * s) <- k;
      t.a.((2 * s) + 1) <- id;
      t.size <- t.size + 1;
      if 2 * t.size > t.mask then grow t;
      -1 - id
    end

end

exception Found_breach
exception Found_fair
exception Found_exhausted of Governor.reason

type ws = {
  ws_tab : Itab.t;
  ws_keys : Vec.t;  (* packed state by dense id: the table in id order *)
  ws_low : Vec.t;
  ws_emask : Vec.t;
  ws_onstack : Vec.t;
  ws_sccs : Vec.t;
  ws_fr_u : Vec.t;
  ws_fr_s : Vec.t;
  ws_fr_pid : Vec.t;
  ws_fr_epid : Vec.t;
}
(** Reusable exploration buffers: a wiring sweep visits thousands of
    spaces, and re-growing the visited table and the Tarjan vectors from
    scratch each time costs more major-GC work than the exploration
    itself.  Buffers start small and keep their high-water capacity
    across {!check_wiring} calls, so a reset (one fill of the visited
    table) costs what the largest space so far needed. *)

let ws () =
  {
    ws_tab = Itab.create ();
    ws_keys = Vec.create ();
    ws_low = Vec.create ();
    ws_emask = Vec.create ();
    ws_onstack = Vec.create ();
    ws_sccs = Vec.create ();
    ws_fr_u = Vec.create ();
    ws_fr_s = Vec.create ();
    ws_fr_pid = Vec.create ();
    ws_fr_epid = Vec.create ();
  }

let reset_ws w =
  Itab.reset w.ws_tab;
  Vec.reset w.ws_keys;
  Vec.reset w.ws_low;
  Vec.reset w.ws_emask;
  Vec.reset w.ws_onstack;
  Vec.reset w.ws_sccs;
  Vec.reset w.ws_fr_u;
  Vec.reset w.ws_fr_s;
  Vec.reset w.ws_fr_pid;
  Vec.reset w.ws_fr_epid

let check_wiring ?ws:reuse ?governor ?ckpt ?(ckpt_extra = []) ?(resume = false)
    ~cfg ~wiring ~inputs () =
  let n = Rt_mutex.processors cfg in
  let m = Rt_mutex.registers cfg in
  if n < 1 || n > 3 || Array.length inputs <> n then Unsupported
  else begin
    let tabs = Array.init n (fun p -> build_ptab cfg ~inputs p) in
    let nv = 1 + (2 * n) in
    (* Bit layout: registers in the low 3m bits, then one power-of-two
       field per processor's interned phase index. *)
    let bits_of k =
      let rec go b = if 1 lsl b >= k then b else go (b + 1) in
      go 1
    in
    let off = Array.make n (3 * m) in
    for p = 1 to n - 1 do
      off.(p) <- off.(p - 1) + bits_of tabs.(p - 1).count
    done;
    if off.(n - 1) + bits_of tabs.(n - 1).count > 61 then Unsupported
    else begin
      let lmask = Array.init n (fun p -> (1 lsl bits_of tabs.(p).count) - 1) in
      (* Per-phase shift of the pending access through this wiring
         (flattened from private index to phase index). *)
      let shift =
        Array.init n (fun p ->
            Array.map
              (fun r -> 3 * Anonmem.Wiring.phys wiring ~p r)
              tabs.(p).reg)
      in
      let local_of s p = (s asr off.(p)) land lmask.(p) in
      (* Successor of [s] by processor [p], or -1 if halted. *)
      let succ_of s p =
        let t = tabs.(p) in
        let l = (s asr Array.unsafe_get off p) land Array.unsafe_get lmask p in
        match Array.unsafe_get t.kind l with
        | 2 -> -1
        | 0 ->
            let sh = Array.unsafe_get (Array.unsafe_get shift p) l in
            let v = (s asr sh) land 7 in
            s
            + ((Array.unsafe_get t.rsucc ((l * nv) + v) - l)
              lsl Array.unsafe_get off p)
        | _ ->
            let sh = Array.unsafe_get (Array.unsafe_get shift p) l in
            ((s land lnot (7 lsl sh)) lor (Array.unsafe_get t.wval l lsl sh))
            + ((Array.unsafe_get t.wsucc l - l) lsl Array.unsafe_get off p)
      in
      let safe s =
        let cs = ref 0 and bad = ref false in
        for p = 0 to n - 1 do
          let l = local_of s p in
          if tabs.(p).cs.(l) then incr cs;
          if tabs.(p).bad.(l) then bad := true
        done;
        !cs <= 1 && not !bad
      in
      let live_mask s =
        let mask = ref 0 in
        for p = 0 to n - 1 do
          if tabs.(p).kind.(local_of s p) <> 2 then mask := !mask lor (1 lsl p)
        done;
        !mask
      in
      (* Tarjan bookkeeping, by dense id.  Discovery order equals
         insertion order, so the dense id doubles as the DFS number.
         [emask] accumulates, per still-open state, the pids of edges
         known to be internal to that state's eventual SCC: every edge
         into an on-stack vertex closes a cycle (the stack invariant:
         on-stack vertices reach the current vertex), so its pid is
         internal, and when a child pops {e without} being an SCC root
         its tree edge and accumulated mask merge into the parent.  At a
         root pop [emask] is then exactly the SCC's internal-edge pid
         set — the fairness check needs no second pass over members. *)
      let count = ref 0 in
      let w = match reuse with Some w -> reset_ws w; w | None -> ws () in
      let tab = w.ws_tab and keys = w.ws_keys in
      let low = w.ws_low and emask = w.ws_emask in
      let onstack = w.ws_onstack in
      let sccs = w.ws_sccs in
      (* DFS frames: dense id, packed state, next pid to expand, and the
         pid of the tree edge that discovered this frame. *)
      let fr_u = w.ws_fr_u and fr_s = w.ws_fr_s in
      let fr_pid = w.ws_fr_pid and fr_epid = w.ws_fr_epid in
      (* --- checkpoint plumbing ----------------------------------------
         Everything the Tarjan loop owns is flat int data, and each
         vector's live prefix is streamed into the file as it is
         ([Checkpoint.Ints]), never copied.  Dense ids are
         insertion order, so the packed-state hash table is saved as the
         id-ordered key vector [keys] — 8 B/state, written in O(states)
         instead of a walk over the table's whole capacity — and rebuilt
         on load by re-inserting key i with id i.  The price is that
         vector: +8 B/state resident.  Alongside it go the per-id
         bookkeeping vectors, the SCC stack and the four frame vectors.
         The loop top is the consistent point. *)
      let context =
        Fmt.str "packed|%d|%d|%a|%s" n m Anonmem.Wiring.pp wiring
          (String.concat "," (List.map string_of_int (Array.to_list inputs)))
      in
      let vec v = Checkpoint.Ints (v.Vec.a, v.Vec.len) in
      let restore_vec v b =
        Vec.reset v;
        Array.iter (Vec.push v) (Checkpoint.ints_of_bytes b)
      in
      let restore_itab b =
        restore_vec keys b;
        for id = 0 to keys.Vec.len - 1 do
          let k = Vec.get keys id in
          if k < 0 || Itab.find_or_add tab k id >= 0 then
            raise
              (Checkpoint.Corrupt_checkpoint
                 "Rt_mutex_packed: itab section holds a negative or repeated \
                  key")
        done
      in
      let save_ckpt path =
        Checkpoint.write ~path
          ([
             ("context", Checkpoint.Raw (Bytes.of_string context));
             ("itab", vec keys);
             ("counters", Checkpoint.Ints ([| !count |], 1));
             ("low", vec w.ws_low);
             ("emask", vec w.ws_emask);
             ("onstack", vec w.ws_onstack);
             ("sccs", vec w.ws_sccs);
             ("fr_u", vec w.ws_fr_u);
             ("fr_s", vec w.ws_fr_s);
             ("fr_pid", vec w.ws_fr_pid);
             ("fr_epid", vec w.ws_fr_epid);
           ]
          @ List.map (fun (tag, b) -> (tag, Checkpoint.Raw b)) ckpt_extra)
      in
      let durable = Checkpoint.run ?governor ckpt save_ckpt in
      let who = "Rt_mutex_packed" in
      let resumed =
        match Checkpoint.resumable ~who ~context ~resume ckpt with
        | Some sections ->
            restore_itab (Checkpoint.find "itab" sections);
            let counters =
              Checkpoint.find_ints ~who ~count:1 "counters" sections
            in
            count := counters.(0);
            if keys.Vec.len <> !count then
              raise
                (Checkpoint.Corrupt_checkpoint
                   "Rt_mutex_packed: itab section disagrees with the state \
                    count");
            restore_vec w.ws_low (Checkpoint.find "low" sections);
            restore_vec w.ws_emask (Checkpoint.find "emask" sections);
            restore_vec w.ws_onstack (Checkpoint.find "onstack" sections);
            restore_vec w.ws_sccs (Checkpoint.find "sccs" sections);
            restore_vec w.ws_fr_u (Checkpoint.find "fr_u" sections);
            restore_vec w.ws_fr_s (Checkpoint.find "fr_s" sections);
            restore_vec w.ws_fr_pid (Checkpoint.find "fr_pid" sections);
            restore_vec w.ws_fr_epid (Checkpoint.find "fr_epid" sections);
            true
        | None -> false
      in
      let push_state s epid =
        (* pre: s is fresh, already interned with id = !count *)
        if not (safe s) then raise Found_breach;
        let id = !count in
        incr count;
        Vec.push keys s;
        Vec.push low id;
        Vec.push emask 0;
        Vec.push onstack 1;
        Vec.push sccs id;
        Vec.push fr_u id;
        Vec.push fr_s s;
        Vec.push fr_pid 0;
        Vec.push fr_epid epid
      in
      let pop_scc u s =
        (* Members sit atop the SCC stack, ending at [u]. *)
        let i = ref (Vec.(sccs.len) - 1) in
        let v = ref (Vec.get sccs !i) in
        Vec.set onstack !v 0;
        while !v <> u do
          decr i;
          v := Vec.get sccs !i;
          Vec.set onstack !v 0
        done;
        sccs.Vec.len <- !i;
        let pidmask = Vec.get emask u in
        if pidmask <> 0 then begin
          let lm = live_mask s in
          if lm <> 0 && lm land pidmask = lm then raise Found_fair
        end
      in
      let run () =
        if not resumed then begin
          ignore (Itab.find_or_add tab 0 0);
          push_state 0 0
        end;
        while Vec.(fr_u.len) > 0 do
          (match Checkpoint.tick durable with
          | Some reason -> raise (Found_exhausted reason)
          | None -> ());
          let fi = Vec.(fr_u.len) - 1 in
          let pid = Vec.get fr_pid fi in
          if pid < n then begin
            Vec.set fr_pid fi (pid + 1);
            let s' = succ_of (Vec.get fr_s fi) pid in
            if s' >= 0 then begin
              let r = Itab.find_or_add tab s' !count in
              if r < 0 then push_state s' pid
              else if Vec.get onstack r = 1 then begin
                let u = Vec.get fr_u fi in
                Vec.set low u (min (Vec.get low u) r);
                Vec.set emask u (Vec.get emask u lor (1 lsl pid))
              end
            end
          end
          else begin
            let u = Vec.get fr_u fi in
            let s = Vec.get fr_s fi in
            let epid = Vec.get fr_epid fi in
            fr_u.Vec.len <- fi;
            fr_s.Vec.len <- fi;
            fr_pid.Vec.len <- fi;
            fr_epid.Vec.len <- fi;
            if Vec.get low u = u then pop_scc u s
            else if Vec.(fr_u.len) > 0 then begin
              (* Non-root pop: this state's SCC continues in the parent —
                 the discovering tree edge and the accumulated internal
                 mask belong to the common SCC. *)
              let parent = Vec.get fr_u (Vec.(fr_u.len) - 1) in
              Vec.set low parent (min (Vec.get low parent) (Vec.get low u));
              Vec.set emask parent
                (Vec.get emask parent lor Vec.get emask u lor (1 lsl epid))
            end
          end
        done
      in
      try
        run ();
        Clean { states = !count }
      with
      | Found_breach -> Breach
      | Found_fair -> Fair_cycle
      | Found_exhausted reason -> Exhausted { reason; states = !count }
    end
  end
