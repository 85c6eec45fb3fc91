(** A symmetric deadlock-free mutual-exclusion protocol for fully-anonymous
    read/write memory, in the style of Raynal–Taubenfeld ("Fully Anonymous
    Shared Memory Algorithms", arXiv:1909.05576).

    Each register holds [Free], [Claim id] (claimed by the processor
    whose identity is [id]) or [Seal id] (the critical-section holder's
    entry marker, see below).  Identities are the inputs: the protocol is
    {e symmetric} — it only ever compares identities for equality, never
    orders them — and fully anonymous: every processor runs the same code
    over its private wiring of the m registers.

    One competition round of a processor:

    + collect all m registers (one read per step, local order);
    + if every register holds my identity: enter the critical section;
    + else if some other identity holds strictly more registers than I
      do: release every register I hold (I lost this round), re-collect;
    + else if some register is free: claim the first free one (a blind
      write — the view may be stale, so the claim can overwrite a
      competitor's fresher claim), re-collect;
    + else spin (full memory, my claim count is weakly maximal): some
      strictly weaker competitor must release before anything changes.

    The critical section is a {e seal-and-audit}: the holder first
    rewrites all m registers with [Seal id], then re-reads them and
    reports [Cs_intruded] iff some register came back holding a
    {e foreign seal}.  Foreign {e claims} landing inside the held set are
    deliberately ignored: a pending stale claim firing into the critical
    section is the unavoidable covering phenomenon of anonymous memory
    (the host paper's Section-2 construction) and is benign — the
    claimer is strictly behind and must release.  A foreign seal, by
    contrast, is sound evidence of a mutual-exclusion breach: the
    intruder sealed only after collecting an all-mine view, and its seal
    write lands between this holder's own seal write and the audit read
    of the same register, so the two critical sections overlap.  The
    tripwire is what makes mutual-exclusion races visible to the fuzzer,
    which sees outcomes only; the model checker additionally checks the
    real state invariant (at most one processor in {!in_cs}) and, per
    the feasibility map, certifies at the checked sizes that the
    tripwire never fires at clean cells — the outcome oracle is
    empirically exact there.  The exit section frees all m registers and
    the processor halts: the protocol is one-shot, which turns mutual
    exclusion into a state invariant and deadlock-freedom into the
    absence of a fair cycle.

    Feasibility boundary (checked empirically by the feasibility map):
    the protocol is sound and deadlock-free when m is coprime to every
    k in [2..n] {e and} m >= 3.  Non-coprime cells deadlock — k processors
    can split the m registers into equal claim counts and spin forever;
    m = 1 (coprime, but below the covering floor) loses mutual exclusion
    to a Burns–Lynch-style covering race: a single pending stale write
    obliterates the winner's whole claim set.

    With [eager_entry] the entry test is weakened to "m-1 claims suffice" —
    a planted bug used by the differential test matrix; its counterexamples
    must replay through {!Modelcheck.Witness.Replay}. *)

type cfg = { n : int; m : int; eager_entry : bool }

let cfg ~n ~m =
  if n < 1 || m < 1 then invalid_arg "Rt_mutex.cfg";
  { n; m; eager_entry = false }

(** The planted-bug variant: enters the critical section one claim short. *)
let cfg_eager ~n ~m = { (cfg ~n ~m) with eager_entry = true }

type value = Free | Claim of int | Seal of int

(** The identity holding a register, sealed or not. *)
let owner = function Free -> None | Claim id | Seal id -> Some id

type input = int
type output = Cs_clean | Cs_intruded

type phase =
  | Collecting of { pos : int; mine : int; others : (int * int) list; first_free : int }
      (** The collect keeps only what {!decide} consumes — an
          observably-equivalent compression of the raw view (DESIGN §4):
          [mine] is the bitmask of private indices read as held by me,
          [others] the per-rival claim counts (ascending identities;
          claim and seal both count — only ownership matters to the
          competition), [first_free] the lowest index read [Free]
          ([-1] if none yet).  Collapsing read order and the rivals'
          claim/seal distinction shrinks the reachable local states by
          orders of magnitude at m = 5, which is what makes the n = 3
          feasibility cells exhaustively checkable. *)
  | Claiming of { target : int }  (** about to write my claim to [target] *)
  | Releasing of { mine : int list }
      (** registers still to free, ascending local indices; never [] *)
  | Sealing of { pos : int }  (** critical-section entry: sealing all m *)
  | Auditing of { pos : int; dirty : bool }  (** critical-section audit *)
  | Unlocking of { pos : int; dirty : bool }  (** freeing all m registers *)
  | Done of output

type local = { id : int; phase : phase }

let name = "rt-mutex"
let processors c = c.n
let registers c = c.m
let register_init _ = Free

let fresh_collect =
  Collecting { pos = 0; mine = 0; others = []; first_free = -1 }

let init _ id = { id; phase = fresh_collect }
let halted _ l = match l.phase with Done _ -> true | _ -> false

(** Whether a processor is in the critical section proper — from its
    first seal write through its last audit read.  The model checker's
    mutual-exclusion invariant counts these. *)
let in_cs l = match l.phase with Sealing _ | Auditing _ -> true | _ -> false

let next _ l =
  match l.phase with
  | Collecting { pos; _ } -> Some (Anonmem.Protocol.Read pos)
  | Claiming { target } -> Some (Anonmem.Protocol.Write (target, Claim l.id))
  | Releasing { mine = r :: _ } -> Some (Anonmem.Protocol.Write (r, Free))
  | Releasing { mine = [] } -> invalid_arg "Rt_mutex.next: empty release"
  | Sealing { pos } -> Some (Anonmem.Protocol.Write (pos, Seal l.id))
  | Auditing { pos; _ } -> Some (Anonmem.Protocol.Read pos)
  | Unlocking { pos; _ } -> Some (Anonmem.Protocol.Write (pos, Free))
  | Done _ -> None

let popcount mask =
  let rec go mask acc = if mask = 0 then acc else go (mask lsr 1) (acc + (mask land 1)) in
  go mask 0

let indices_of_mask ~m mask =
  List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init m Fun.id)

(** Bump identity [q]'s count, keeping the assoc sorted by identity so
    equal count summaries are structurally equal (state hashing). *)
let rec bump (q : int) = function
  | [] -> [ (q, 1) ]
  | (id, k) :: rest when id = q -> (id, k + 1) :: rest
  | ((id, _) as e) :: rest when id < q -> e :: bump q rest
  | rest -> (q, 1) :: rest

(** Decide the next phase from the collect summary; equivalent to the
    textbook decision over the full view. *)
let decide c l ~mine ~others ~first_free =
  let mine_count = popcount mine in
  let threshold = if c.eager_entry then c.m - 1 else c.m in
  if mine_count >= threshold && mine_count >= 1 then
    { l with phase = Sealing { pos = 0 } }
  else if List.exists (fun (_, k) -> k > mine_count) others then
    match indices_of_mask ~m:c.m mine with
    | [] -> { l with phase = fresh_collect }
    | mine -> { l with phase = Releasing { mine } }
  else if first_free >= 0 then { l with phase = Claiming { target = first_free } }
  else { l with phase = fresh_collect }

let apply_read c l ~reg v =
  match l.phase with
  | Collecting { pos; mine; others; first_free } ->
      if reg <> pos then invalid_arg "Rt_mutex.apply_read: wrong register";
      let mine, others, first_free =
        match owner v with
        | None -> (mine, others, if first_free < 0 then pos else first_free)
        | Some q when q = l.id -> (mine lor (1 lsl pos), others, first_free)
        | Some q -> (mine, bump q others, first_free)
      in
      if pos + 1 < c.m then
        { l with phase = Collecting { pos = pos + 1; mine; others; first_free } }
      else decide c l ~mine ~others ~first_free
  | Auditing { pos; dirty } ->
      if reg <> pos then invalid_arg "Rt_mutex.apply_read: wrong register";
      let dirty =
        dirty || match v with Seal q -> q <> l.id | Free | Claim _ -> false
      in
      if pos + 1 < c.m then { l with phase = Auditing { pos = pos + 1; dirty } }
      else { l with phase = Unlocking { pos = 0; dirty } }
  | Claiming _ | Releasing _ | Sealing _ | Unlocking _ | Done _ ->
      invalid_arg "Rt_mutex.apply_read: not reading"

let apply_write c l =
  match l.phase with
  | Claiming _ -> { l with phase = fresh_collect }
  | Releasing { mine = _ :: rest } ->
      if rest = [] then { l with phase = fresh_collect }
      else { l with phase = Releasing { mine = rest } }
  | Sealing { pos } ->
      if pos + 1 < c.m then { l with phase = Sealing { pos = pos + 1 } }
      else { l with phase = Auditing { pos = 0; dirty = false } }
  | Unlocking { pos; dirty } ->
      if pos + 1 < c.m then { l with phase = Unlocking { pos = pos + 1; dirty } }
      else { l with phase = Done (if dirty then Cs_intruded else Cs_clean) }
  | Collecting _ | Auditing _ | Releasing { mine = [] } | Done _ ->
      invalid_arg "Rt_mutex.apply_write: not writing"

let output _ l = match l.phase with Done o -> Some o | _ -> None

(* Flat twin.  Register values are ints: [Free] is [-1], [Claim id] is
   [2*id], [Seal id] is [2*id + 1] — owner is [v asr 1], the seal bit is
   [v land 1].  The collect summary lives in per-processor scratch: [mine]
   and [first_free] as in the boxed phase, the rival counts as a row of
   per-identity counters (identities are required to sit below
   {!Bits.max_width}, so a touched-identity bitmask bounds the clearing
   cost of a fresh collect) plus a running maximum, which is all {!decide}
   reads of [others].  Phase is a state int (0 collect, 1 claim,
   2 release, 3 seal, 4 audit, 5 unlock, 6 done) with a position/target
   argument; the release worklist is the [mine] bitmask itself, popped in
   ascending order exactly like the boxed index list.  Total. *)
let flat (c : cfg) ~(phys : int array) ~(inputs : int array)
    ~(registers : value array) ~(locals : local array) :
    value Anonmem.Protocol.flat option =
  let n = c.n and m = c.m in
  let module Bits = Repro_util.Bits in
  let cap = Bits.max_width in
  let id_ok id = 0 <= id && id < cap in
  let value_ok = function Free -> true | Claim id | Seal id -> id_ok id in
  let phase_ok = function
    | Collecting { others; _ } -> List.for_all (fun (q, _) -> id_ok q) others
    | Releasing { mine } -> mine <> []
    | _ -> true
  in
  if n > Bits.max_width || m > Bits.max_width
     || not (Array.for_all id_ok inputs)
     || not (Array.for_all value_ok registers)
     || not (Array.for_all (fun l -> id_ok l.id && phase_ok l.phase) locals)
  then None
  else begin
    let enc = function
      | Free -> -1
      | Claim id -> id * 2
      | Seal id -> (id * 2) + 1
    in
    let dec v =
      if v < 0 then Free
      else if v land 1 = 0 then Claim (v asr 1)
      else Seal (v asr 1)
    in
    let rv = Array.map enc registers in
    let pv = Array.copy rv in
    let dirty = ref 0 in
    let lid = Array.map (fun l -> l.id) locals in
    let lstate = Array.make n 0 in
    let larg = Array.make n 0 in
    let lmine = Array.make n 0 in
    let lff = Array.make n (-1) in
    let ldirty = Array.make n 0 in
    let cnt = Array.make (n * cap) 0 in
    let ltouch = Array.make n 0 in
    let lmaxr = Array.make n 0 in
    Array.iteri
      (fun p l ->
        match l.phase with
        | Collecting { pos; mine; others; first_free } ->
            lstate.(p) <- 0;
            larg.(p) <- pos;
            lmine.(p) <- mine;
            lff.(p) <- first_free;
            List.iter
              (fun (q, k) ->
                cnt.((p * cap) + q) <- k;
                ltouch.(p) <- ltouch.(p) lor (1 lsl q);
                if k > lmaxr.(p) then lmaxr.(p) <- k)
              others
        | Claiming { target } ->
            lstate.(p) <- 1;
            larg.(p) <- target
        | Releasing { mine } ->
            lstate.(p) <- 2;
            lmine.(p) <-
              List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 mine
        | Sealing { pos } ->
            lstate.(p) <- 3;
            larg.(p) <- pos
        | Auditing { pos; dirty } ->
            lstate.(p) <- 4;
            larg.(p) <- pos;
            ldirty.(p) <- (if dirty then 1 else 0)
        | Unlocking { pos; dirty } ->
            lstate.(p) <- 5;
            larg.(p) <- pos;
            ldirty.(p) <- (if dirty then 1 else 0)
        | Done o ->
            lstate.(p) <- 6;
            larg.(p) <- (match o with Cs_clean -> 0 | Cs_intruded -> 1))
      locals;
    let fresh p =
      let mask = ref ltouch.(p) in
      while !mask <> 0 do
        cnt.((p * cap) + Bits.ctz !mask) <- 0;
        mask := !mask land (!mask - 1)
      done;
      ltouch.(p) <- 0;
      lmaxr.(p) <- 0;
      lmine.(p) <- 0;
      lff.(p) <- -1;
      lstate.(p) <- 0;
      larg.(p) <- 0
    in
    let halted p = lstate.(p) = 6 in
    let peek p =
      match lstate.(p) with
      | 0 -> phys.((p * m) + larg.(p)) lsl 1
      | 1 -> (phys.((p * m) + larg.(p)) lsl 1) lor 1
      | 2 -> (phys.((p * m) + Bits.ctz lmine.(p)) lsl 1) lor 1
      | 3 | 5 -> (phys.((p * m) + larg.(p)) lsl 1) lor 1
      | 4 -> phys.((p * m) + larg.(p)) lsl 1
      | _ -> -1
    in
    let decide p =
      let mine_count = Bits.popcount lmine.(p) in
      let threshold = if c.eager_entry then m - 1 else m in
      if mine_count >= threshold && mine_count >= 1 then begin
        lstate.(p) <- 3;
        larg.(p) <- 0
      end
      else if lmaxr.(p) > mine_count then begin
        if lmine.(p) = 0 then fresh p
        else lstate.(p) <- 2 (* release worklist: the [lmine] mask *)
      end
      else if lff.(p) >= 0 then begin
        let target = lff.(p) in
        fresh p;
        lstate.(p) <- 1;
        larg.(p) <- target
      end
      else fresh p
    in
    let do_read p v =
      let pos = larg.(p) in
      (if v < 0 then begin
         if lff.(p) < 0 then lff.(p) <- pos
       end
       else
         let q = v asr 1 in
         if q = lid.(p) then lmine.(p) <- lmine.(p) lor (1 lsl pos)
         else begin
           let idx = (p * cap) + q in
           let k = cnt.(idx) + 1 in
           cnt.(idx) <- k;
           ltouch.(p) <- ltouch.(p) lor (1 lsl q);
           if k > lmaxr.(p) then lmaxr.(p) <- k
         end);
      if pos + 1 < m then larg.(p) <- pos + 1 else decide p
    in
    let audit_read p v =
      let pos = larg.(p) in
      if v >= 0 && v land 1 = 1 && v asr 1 <> lid.(p) then ldirty.(p) <- 1;
      if pos + 1 < m then larg.(p) <- pos + 1
      else begin
        lstate.(p) <- 5;
        larg.(p) <- 0
      end
    in
    (* The local transition of a write — shared by [step] (which also
       lands the value) and [step_omit] (which doesn't). *)
    let advance_write p =
      match lstate.(p) with
      | 1 -> fresh p
      | 2 ->
          lmine.(p) <- lmine.(p) land (lmine.(p) - 1);
          if lmine.(p) = 0 then fresh p
      | 3 ->
          if larg.(p) + 1 < m then larg.(p) <- larg.(p) + 1
          else begin
            lstate.(p) <- 4;
            larg.(p) <- 0;
            ldirty.(p) <- 0
          end
      | 5 ->
          if larg.(p) + 1 < m then larg.(p) <- larg.(p) + 1
          else begin
            lstate.(p) <- 6;
            larg.(p) <- ldirty.(p)
          end
      | _ -> invalid_arg "Rt_mutex.flat: not writing"
    in
    let step p =
      match lstate.(p) with
      | 0 -> do_read p rv.(phys.((p * m) + larg.(p)))
      | 4 -> audit_read p rv.(phys.((p * m) + larg.(p)))
      | s ->
          let i = if s = 2 then Bits.ctz lmine.(p) else larg.(p) in
          let r = phys.((p * m) + i) in
          pv.(r) <- rv.(r);
          rv.(r) <-
            (match s with
            | 1 -> lid.(p) * 2
            | 3 -> (lid.(p) * 2) + 1
            | _ -> -1);
          dirty := !dirty lor (1 lsl r);
          advance_write p
    in
    let step_stale p =
      match lstate.(p) with
      | 0 -> do_read p pv.(phys.((p * m) + larg.(p)))
      | 4 -> audit_read p pv.(phys.((p * m) + larg.(p)))
      | _ -> invalid_arg "Rt_mutex.flat: not reading"
    in
    let reset p =
      fresh p;
      lid.(p) <- inputs.(p)
    in
    let value r =
      if !dirty land (1 lsl r) <> 0 then dec rv.(r) else registers.(r)
    in
    let sync () =
      List.iter
        (fun r -> registers.(r) <- dec rv.(r))
        (Bits.to_list !dirty);
      for p = 0 to n - 1 do
        let phase =
          match lstate.(p) with
          | 0 ->
              let others =
                List.rev_map
                  (fun q -> (q, cnt.((p * cap) + q)))
                  (List.rev (Bits.to_list ltouch.(p)))
              in
              Collecting
                { pos = larg.(p); mine = lmine.(p); others; first_free = lff.(p) }
          | 1 -> Claiming { target = larg.(p) }
          | 2 -> Releasing { mine = Bits.to_list lmine.(p) }
          | 3 -> Sealing { pos = larg.(p) }
          | 4 -> Auditing { pos = larg.(p); dirty = ldirty.(p) = 1 }
          | 5 -> Unlocking { pos = larg.(p); dirty = ldirty.(p) = 1 }
          | _ -> Done (if larg.(p) = 1 then Cs_intruded else Cs_clean)
        in
        locals.(p) <- { id = lid.(p); phase }
      done
    in
    Some
      {
        Anonmem.Protocol.total = true;
        peek;
        step;
        step_omit = advance_write;
        step_stale;
        reset;
        halted;
        value;
        sync;
      }
  end

let pp_value _ ppf = function
  | Free -> Fmt.string ppf "-"
  | Claim id -> Fmt.pf ppf "%d" id
  | Seal id -> Fmt.pf ppf "S%d" id

let pp_output _ ppf = function
  | Cs_clean -> Fmt.string ppf "cs-clean"
  | Cs_intruded -> Fmt.string ppf "cs-intruded"

let pp_local c ppf l =
  let phase ppf = function
    | Collecting { pos; _ } -> Fmt.pf ppf "collect@%d" pos
    | Claiming { target } -> Fmt.pf ppf "claim r%d" (target + 1)
    | Releasing { mine } ->
        Fmt.pf ppf "release %a" Fmt.(list ~sep:(any ",") int) mine
    | Sealing { pos } -> Fmt.pf ppf "seal@%d" pos
    | Auditing { pos; _ } -> Fmt.pf ppf "CS@%d" pos
    | Unlocking { pos; _ } -> Fmt.pf ppf "unlock@%d" pos
    | Done o -> pp_output c ppf o
  in
  Fmt.pf ppf "{id=%d %a}" l.id phase l.phase
