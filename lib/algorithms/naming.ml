(** Mutex-based desanonymization for fully-anonymous read/write memory
    (after Godard–Imbs–Raynal–Taubenfeld, arXiv:1903.12204): distinct
    names in [1..n] are assigned on top of anonymous registers by racing
    the {!Rt_mutex} competition and taking the next free name inside the
    critical section.

    Register values pair the mutex claim ([None] or [Some id]) with a
    {!Named_memory} ledger.  Every write a processor performs — claim,
    release, flood — carries everything it knows; every read merges the
    register's ledger into the reader's knowledge.  The winner of the
    mutex computes its name as one past the largest name it has seen
    (its winning collect read all m registers, so it knows every name
    assigned so far), then {e floods}: it writes the extended ledger to
    all m registers, releasing its claims in the same writes, and halts.
    Flooding before unlocking is what hands the next winner a complete
    ledger: each critical section's knowledge contains its predecessors',
    so halt-time views form a containment chain — the named single-writer
    substrate of {!Named_memory}, on which the classic collect/snapshot
    oracle judges the outputs.

    The feasibility boundary is inherited from the mutex unchanged
    (ledgers ride inside values, so all m registers stay in competition):
    clean iff m is coprime to every k in [2..n] and m >= 3.

    The [forgetful_flood] variant floods the {e pre}-entry ledger — the
    winner's own cell never reaches the memory, so a later winner computes
    the same name: the planted duplicate-name bug of the differential
    matrix. *)

type cfg = { n : int; m : int; forgetful_flood : bool }

let cfg ~n ~m =
  if n < 1 || m < 1 then invalid_arg "Naming.cfg";
  { n; m; forgetful_flood = false }

(** The planted-bug variant: the flood omits the winner's own cell. *)
let cfg_forgetful ~n ~m = { (cfg ~n ~m) with forgetful_flood = true }

type value = { owner : int option; ledger : Named_memory.t }
type input = int

type output = { name : int; view : Named_memory.t }
(** The acquired name and the ledger known at halt time — the processor's
    collect over the named single-writer cells. *)

type phase =
  | Collecting of { pos : int; mine : int; others : (int * int) list; first_free : int }
      (** Observably-equivalent collect compression, exactly as in
          {!Rt_mutex.Collecting}: [mine] the bitmask of indices owned by
          me, [others] per-rival ownership counts (ascending ids),
          [first_free] the lowest unowned index read ([-1] if none yet).
          Ledgers are merged into [know] eagerly as before. *)
  | Claiming of { target : int }
  | Releasing of { mine : int list }  (** never [] *)
  | Flooding of { pos : int; name : int }
      (** critical section: write the extended ledger everywhere,
          releasing the lock in the same writes *)
  | Done of int  (** the acquired name *)

type local = { id : int; know : Named_memory.t; phase : phase }

let name = "naming"
let processors c = c.n
let registers c = c.m
let register_init _ = { owner = None; ledger = Named_memory.empty }
let fresh_collect =
  Collecting { pos = 0; mine = 0; others = []; first_free = -1 }

let init _ id = { id; know = Named_memory.empty; phase = fresh_collect }
let halted _ l = match l.phase with Done _ -> true | _ -> false

(** Whether a processor holds the naming critical section. *)
let in_cs l = match l.phase with Flooding _ -> true | _ -> false

let next _ l =
  match l.phase with
  | Collecting { pos; _ } -> Some (Anonmem.Protocol.Read pos)
  | Claiming { target } ->
      Some (Anonmem.Protocol.Write (target, { owner = Some l.id; ledger = l.know }))
  | Releasing { mine = r :: _ } ->
      Some (Anonmem.Protocol.Write (r, { owner = None; ledger = l.know }))
  | Releasing { mine = [] } -> invalid_arg "Naming.next: empty release"
  | Flooding { pos; _ } ->
      Some (Anonmem.Protocol.Write (pos, { owner = None; ledger = l.know }))
  | Done _ -> None

let decide c l ~mine ~others ~first_free =
  let mine_count = Rt_mutex.popcount mine in
  if mine_count = c.m then
    let name = Named_memory.next_name l.know in
    let know =
      if c.forgetful_flood then l.know
      else Named_memory.add l.know ~name ~owner:l.id
    in
    { l with know; phase = Flooding { pos = 0; name } }
  else if List.exists (fun (_, k) -> k > mine_count) others then
    match Rt_mutex.indices_of_mask ~m:c.m mine with
    | [] -> { l with phase = fresh_collect }
    | mine -> { l with phase = Releasing { mine } }
  else if first_free >= 0 then { l with phase = Claiming { target = first_free } }
  else { l with phase = fresh_collect }

let apply_read c l ~reg v =
  match l.phase with
  | Collecting { pos; mine; others; first_free } ->
      if reg <> pos then invalid_arg "Naming.apply_read: wrong register";
      let l = { l with know = Named_memory.merge l.know v.ledger } in
      let mine, others, first_free =
        match v.owner with
        | None -> (mine, others, if first_free < 0 then pos else first_free)
        | Some q when q = l.id -> (mine lor (1 lsl pos), others, first_free)
        | Some q -> (mine, Rt_mutex.bump q others, first_free)
      in
      if pos + 1 < c.m then
        { l with phase = Collecting { pos = pos + 1; mine; others; first_free } }
      else decide c l ~mine ~others ~first_free
  | Claiming _ | Releasing _ | Flooding _ | Done _ ->
      invalid_arg "Naming.apply_read: not collecting"

let apply_write c l =
  match l.phase with
  | Claiming _ -> { l with phase = fresh_collect }
  | Releasing { mine = _ :: rest } ->
      if rest = [] then { l with phase = fresh_collect }
      else { l with phase = Releasing { mine = rest } }
  | Flooding { pos; name } ->
      if pos + 1 < c.m then { l with phase = Flooding { pos = pos + 1; name } }
      else { l with phase = Done name }
  | Collecting _ | Releasing { mine = [] } | Done _ ->
      invalid_arg "Naming.apply_write: not writing"

let output _ l =
  match l.phase with
  | Done name -> Some { name; view = l.know }
  | _ -> None

(* Flat twin.  A ledger flattens to a mask word (bit [b] = name [b + 1]
   present) plus a row of per-name owners, valid where the mask is set;
   merge is a set-bit walk taking the minimum owner on collisions, and
   [next_name] is one past the mask's bit length.  Registers carry such a
   row pair plus an owner int ([-1] = unclaimed); every write blits the
   writer's knowledge row in, exactly as every boxed write carries
   [l.know].  The mutex-competition scratch (rival count rows under a
   touched-identity mask, [mine], [first_free]) is the {!Rt_mutex} flat
   compression unchanged.  Names live in [1..Bits.max_width]; a winner
   about to mint a name past the window raises {!Anonmem.Protocol.Fallback}
   before mutating anything, so the machine is {e not} total — reachable
   runs never get there (at most one name per processor and n fits the
   window), but an adversarial initial state could. *)
let flat (c : cfg) ~(phys : int array) ~(inputs : int array)
    ~(registers : value array) ~(locals : local array) :
    value Anonmem.Protocol.flat option =
  let n = c.n and m = c.m in
  let module Bits = Repro_util.Bits in
  let cap = Bits.max_width in
  let id_ok id = 0 <= id && id < cap in
  let ledger_ok (led : Named_memory.t) =
    List.for_all (fun (cl : Named_memory.cell) -> 1 <= cl.name && cl.name <= cap) led
  in
  let value_ok (v : value) =
    (match v.owner with None -> true | Some id -> id_ok id) && ledger_ok v.ledger
  in
  let phase_ok = function
    | Collecting { others; _ } -> List.for_all (fun (q, _) -> id_ok q) others
    | Releasing { mine } -> mine <> []
    | _ -> true
  in
  let local_ok l = id_ok l.id && ledger_ok l.know && phase_ok l.phase in
  if n > Bits.max_width || m > Bits.max_width
     || not (Array.for_all id_ok inputs)
     || not (Array.for_all value_ok registers)
     || not (Array.for_all local_ok locals)
  then None
  else begin
    (* Row encoding of a ledger into [(mask, own.(base + b))]. *)
    let enc_row (led : Named_memory.t) own base =
      List.fold_left
        (fun mask (cl : Named_memory.cell) ->
          own.(base + cl.name - 1) <- cl.owner;
          mask lor (1 lsl (cl.name - 1)))
        0 led
    in
    let dec_row mask own base : Named_memory.t =
      List.map
        (fun b -> { Named_memory.name = b + 1; owner = own.(base + b) })
        (Bits.to_list mask)
    in
    let rlmask = Array.make m 0 in
    let rlown = Array.make (m * cap) 0 in
    let rownr = Array.make m (-1) in
    Array.iteri
      (fun r (v : value) ->
        rlmask.(r) <- enc_row v.ledger rlown (r * cap);
        rownr.(r) <- (match v.owner with None -> -1 | Some id -> id))
      registers;
    let plmask = Array.copy rlmask in
    let plown = Array.copy rlown in
    let pownr = Array.copy rownr in
    let dirty = ref 0 in
    let lid = Array.map (fun l -> l.id) locals in
    let kmask = Array.make n 0 in
    let kown = Array.make (n * cap) 0 in
    let lstate = Array.make n 0 in
    let larg = Array.make n 0 in
    let lname = Array.make n 0 in
    let lmine = Array.make n 0 in
    let lff = Array.make n (-1) in
    let cnt = Array.make (n * cap) 0 in
    let ltouch = Array.make n 0 in
    let lmaxr = Array.make n 0 in
    Array.iteri
      (fun p l ->
        kmask.(p) <- enc_row l.know kown (p * cap);
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
        | Flooding { pos; name } ->
            lstate.(p) <- 3;
            larg.(p) <- pos;
            lname.(p) <- name
        | Done name ->
            lstate.(p) <- 4;
            larg.(p) <- name)
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
    let halted p = lstate.(p) = 4 in
    let peek p =
      match lstate.(p) with
      | 0 -> phys.((p * m) + larg.(p)) lsl 1
      | 1 -> (phys.((p * m) + larg.(p)) lsl 1) lor 1
      | 2 -> (phys.((p * m) + Bits.ctz lmine.(p)) lsl 1) lor 1
      | 3 -> (phys.((p * m) + larg.(p)) lsl 1) lor 1
      | _ -> -1
    in
    let decide p =
      let mine_count = Bits.popcount lmine.(p) in
      if mine_count = m then begin
        (* [next_name] = bit length + 1; window overflow was pre-checked
           (Fallback) before this step mutated anything. *)
        let rec bitlen x acc = if x = 0 then acc else bitlen (x lsr 1) (acc + 1) in
        let name = bitlen kmask.(p) 0 + 1 in
        if not c.forgetful_flood then begin
          (* The name is fresh, so this is a plain insertion. *)
          kmask.(p) <- kmask.(p) lor (1 lsl (name - 1));
          kown.((p * cap) + name - 1) <- lid.(p)
        end;
        lstate.(p) <- 3;
        larg.(p) <- 0;
        lname.(p) <- name
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
    (* A collect read of register [r] out of the given (current or stale)
       row view: merge the ledger into [know], then the ownership
       bookkeeping.  The Fallback pre-check comes first, before any
       mutation: would this read complete an all-mine collect whose
       merged knowledge already holds the window's last name? *)
    let do_read p r vmask vown vownr =
      let pos = larg.(p) in
      if
        pos + 1 = m
        && Bits.popcount
             (if vownr = lid.(p) then lmine.(p) lor (1 lsl pos)
              else lmine.(p))
           = m
        && (kmask.(p) lor vmask) lsr (cap - 1) <> 0
      then raise Anonmem.Protocol.Fallback;
      let bits = ref vmask in
      while !bits <> 0 do
        let b = Bits.ctz !bits in
        let ki = (p * cap) + b in
        let ow = vown.((r * cap) + b) in
        if kmask.(p) land (1 lsl b) <> 0 then begin
          if ow < kown.(ki) then kown.(ki) <- ow
        end
        else begin
          kmask.(p) <- kmask.(p) lor (1 lsl b);
          kown.(ki) <- ow
        end;
        bits := !bits land (!bits - 1)
      done;
      (if vownr < 0 then begin
         if lff.(p) < 0 then lff.(p) <- pos
       end
       else if vownr = lid.(p) then lmine.(p) <- lmine.(p) lor (1 lsl pos)
       else begin
         let idx = (p * cap) + vownr in
         let k = cnt.(idx) + 1 in
         cnt.(idx) <- k;
         ltouch.(p) <- ltouch.(p) lor (1 lsl vownr);
         if k > lmaxr.(p) then lmaxr.(p) <- k
       end);
      if pos + 1 < m then larg.(p) <- pos + 1 else decide p
    in
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
            larg.(p) <- lname.(p)
          end
      | _ -> invalid_arg "Naming.flat: not writing"
    in
    let copy_row (src : int array) sbase (dst : int array) dbase mask =
      let bits = ref mask in
      while !bits <> 0 do
        let b = Bits.ctz !bits in
        dst.(dbase + b) <- src.(sbase + b);
        bits := !bits land (!bits - 1)
      done
    in
    let step p =
      match lstate.(p) with
      | 0 ->
          let r = phys.((p * m) + larg.(p)) in
          do_read p r rlmask.(r) rlown rownr.(r)
      | s ->
          let i = if s = 2 then Bits.ctz lmine.(p) else larg.(p) in
          let r = phys.((p * m) + i) in
          plmask.(r) <- rlmask.(r);
          copy_row rlown (r * cap) plown (r * cap) rlmask.(r);
          pownr.(r) <- rownr.(r);
          rlmask.(r) <- kmask.(p);
          copy_row kown (p * cap) rlown (r * cap) kmask.(p);
          rownr.(r) <- (if s = 1 then lid.(p) else -1);
          dirty := !dirty lor (1 lsl r);
          advance_write p
    in
    let step_stale p =
      if lstate.(p) <> 0 then invalid_arg "Naming.flat: not reading";
      let r = phys.((p * m) + larg.(p)) in
      do_read p r plmask.(r) plown pownr.(r)
    in
    let reset p =
      fresh p;
      lid.(p) <- inputs.(p);
      kmask.(p) <- 0
    in
    let dec_value r =
      {
        owner = (if rownr.(r) < 0 then None else Some rownr.(r));
        ledger = dec_row rlmask.(r) rlown (r * cap);
      }
    in
    let value r =
      if !dirty land (1 lsl r) <> 0 then dec_value r else registers.(r)
    in
    let sync () =
      List.iter
        (fun r -> registers.(r) <- dec_value r)
        (Bits.to_list !dirty);
      for p = 0 to n - 1 do
        let phase =
          match lstate.(p) with
          | 0 ->
              let others =
                List.map
                  (fun q -> (q, cnt.((p * cap) + q)))
                  (Bits.to_list ltouch.(p))
              in
              Collecting
                { pos = larg.(p); mine = lmine.(p); others; first_free = lff.(p) }
          | 1 -> Claiming { target = larg.(p) }
          | 2 -> Releasing { mine = Bits.to_list lmine.(p) }
          | 3 -> Flooding { pos = larg.(p); name = lname.(p) }
          | _ -> Done larg.(p)
        in
        locals.(p) <- { id = lid.(p); know = dec_row kmask.(p) kown (p * cap); phase }
      done
    in
    Some
      {
        Anonmem.Protocol.total = false;
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

let pp_value _ ppf v =
  match v.owner with
  | None -> Fmt.pf ppf "-%a" Named_memory.pp v.ledger
  | Some id -> Fmt.pf ppf "%d%a" id Named_memory.pp v.ledger

let pp_output _ ppf o =
  Fmt.pf ppf "name=%d view=%a" o.name Named_memory.pp o.view

let pp_local _ ppf l =
  let phase ppf = function
    | Collecting { pos; _ } -> Fmt.pf ppf "collect@%d" pos
    | Claiming { target } -> Fmt.pf ppf "claim r%d" (target + 1)
    | Releasing { mine } ->
        Fmt.pf ppf "release %a" Fmt.(list ~sep:(any ",") int) mine
    | Flooding { pos; name } -> Fmt.pf ppf "CS:flood@%d name=%d" pos name
    | Done name -> Fmt.pf ppf "named %d" name
  in
  Fmt.pf ppf "{id=%d know=%a %a}" l.id Named_memory.pp l.know phase l.phase
