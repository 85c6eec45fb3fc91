(** A wait-free {e weak leader election} for fully-anonymous read/write
    memory, probing Gelashvili-style space limits at small m
    (cf. arXiv:1506.06817 for the consensus analogue).

    Every processor repeatedly collects the m registers; whenever its view
    contains a free register it claims the first one (a blind write from a
    possibly-stale view).  Once a collect shows the memory full, the
    processor halts: it outputs [Leader] if {e every} register holds its
    own identity and [Follower] otherwise.  The task is weak — electing
    nobody is allowed — but at most one processor may output [Leader].

    The protocol is wait-free: each loop iteration with a free register
    performs a write, the number of free registers never increases, and a
    full view ends the run, so every processor halts within O(m) collects
    regardless of scheduling.

    Space boundary (confirmed empirically by the feasibility map): with
    m >= 2 registers leader-uniqueness holds for every n — a second
    unanimous view would require a second pending write per competitor,
    and each processor has at most one write outstanding between collects.
    With m = 1 the single pending stale write is enough: p claims the lone
    register, sees itself unanimously and exits as leader, then q's stale
    claim (issued when the register was still free) obliterates p's and q
    also reads itself unanimously — two leaders.  One register is below
    the covering floor, the same phenomenon the host paper's Section-2.1
    bound isolates.

    With [majority_entry] the unanimity test weakens to "strictly more
    than half of the registers" — a planted bug whose two-leader
    counterexamples the differential matrix replays. *)

type cfg = { n : int; m : int; majority_entry : bool }

let cfg ~n ~m =
  if n < 1 || m < 1 then invalid_arg "Weak_leader.cfg";
  { n; m; majority_entry = false }

(** The planted-bug variant: declares leadership on a strict majority. *)
let cfg_majority ~n ~m = { (cfg ~n ~m) with majority_entry = true }

type value = int option
type input = int
type output = Leader | Follower

type phase =
  | Collecting of { pos : int; acc : value list }
      (** [acc] holds the values read so far, most recent first *)
  | Claiming of { target : int }
  | Done of output

type local = { id : int; phase : phase }

let name = "weak-leader"
let processors c = c.n
let registers c = c.m
let register_init _ = None
let init _ id = { id; phase = Collecting { pos = 0; acc = [] } }
let halted _ l = match l.phase with Done _ -> true | _ -> false

let next _ l =
  match l.phase with
  | Collecting { pos; _ } -> Some (Anonmem.Protocol.Read pos)
  | Claiming { target } -> Some (Anonmem.Protocol.Write (target, Some l.id))
  | Done _ -> None

let decide c l (view : value list) =
  let free =
    List.mapi (fun i v -> (i, v)) view
    |> List.find_opt (fun (_, v) -> v = None)
  in
  match free with
  | Some (target, _) -> { l with phase = Claiming { target } }
  | None ->
      let mine =
        List.fold_left
          (fun k v -> match v with Some q when q = l.id -> k + 1 | _ -> k)
          0 view
      in
      let wins = if c.majority_entry then 2 * mine > c.m else mine = c.m in
      { l with phase = Done (if wins then Leader else Follower) }

let apply_read c l ~reg v =
  match l.phase with
  | Collecting { pos; acc } ->
      if reg <> pos then invalid_arg "Weak_leader.apply_read: wrong register";
      let acc = v :: acc in
      if pos + 1 < c.m then { l with phase = Collecting { pos = pos + 1; acc } }
      else decide c l (List.rev acc)
  | Claiming _ | Done _ -> invalid_arg "Weak_leader.apply_read: not collecting"

let apply_write _ l =
  match l.phase with
  | Claiming _ -> { l with phase = Collecting { pos = 0; acc = [] } }
  | Collecting _ | Done _ -> invalid_arg "Weak_leader.apply_write: not claiming"

let output _ l = match l.phase with Done o -> Some o | _ -> None

(* Flat twin.  Register values are ints ([-1] = free, [id >= 0] = claimed
   by [id] — injective because identifiers are non-negative); the collect
   accumulator lives in a preallocated per-processor scratch row of the
   values read so far, indexed by collect position.  Phase is a pair of
   ints: state (0 = collecting, 1 = claiming, 2 = done) and its argument
   (position / target / 0-Follower 1-Leader).  Total. *)
let flat (c : cfg) ~(phys : int array) ~(inputs : int array)
    ~(registers : value array) ~(locals : local array) :
    value Anonmem.Protocol.flat option =
  let n = c.n and m = c.m in
  let module Bits = Repro_util.Bits in
  let enc = function None -> -1 | Some id -> id in
  let ok_value = function None -> true | Some id -> id >= 0 in
  if n > Bits.max_width || m > Bits.max_width
     || not (Array.for_all (fun i -> i >= 0) inputs)
     || not (Array.for_all ok_value registers)
     || not (Array.for_all (fun l -> l.id >= 0) locals)
     || not
          (Array.for_all
             (fun l ->
               match l.phase with
               | Collecting { acc; _ } -> List.for_all ok_value acc
               | _ -> true)
             locals)
  then None
  else begin
    let rv = Array.map enc registers in
    let pv = Array.copy rv in
    let dirty = ref 0 in
    let lid = Array.map (fun l -> l.id) locals in
    let lstate = Array.make n 0 in
    let larg = Array.make n 0 in
    let racc = Array.make (n * m) (-1) in
    Array.iteri
      (fun p l ->
        match l.phase with
        | Collecting { pos; acc } ->
            lstate.(p) <- 0;
            larg.(p) <- pos;
            (* [acc] is most-recent-first: position [pos-1] at the head. *)
            List.iteri
              (fun k v -> racc.((p * m) + (pos - 1 - k)) <- enc v)
              acc
        | Claiming { target } ->
            lstate.(p) <- 1;
            larg.(p) <- target
        | Done o ->
            lstate.(p) <- 2;
            larg.(p) <- (match o with Follower -> 0 | Leader -> 1))
      locals;
    let halted p = lstate.(p) = 2 in
    let peek p =
      match lstate.(p) with
      | 0 -> phys.((p * m) + larg.(p)) lsl 1
      | 1 -> (phys.((p * m) + larg.(p)) lsl 1) lor 1
      | _ -> -1
    in
    let decide p =
      (* First free register in the collected row, else count own ids —
         [decide] over the reversed accumulator, position order. *)
      let base = p * m in
      let target = ref (-1) in
      (try
         for i = 0 to m - 1 do
           if racc.(base + i) = -1 then begin
             target := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !target >= 0 then begin
        lstate.(p) <- 1;
        larg.(p) <- !target
      end
      else begin
        let mine = ref 0 in
        for i = 0 to m - 1 do
          if racc.(base + i) = lid.(p) then incr mine
        done;
        let wins = if c.majority_entry then 2 * !mine > m else !mine = m in
        lstate.(p) <- 2;
        larg.(p) <- (if wins then 1 else 0)
      end
    in
    let do_read p v =
      let pos = larg.(p) in
      racc.((p * m) + pos) <- v;
      if pos + 1 < m then larg.(p) <- pos + 1 else decide p
    in
    let step p =
      if lstate.(p) = 0 then do_read p rv.(phys.((p * m) + larg.(p)))
      else begin
        let r = phys.((p * m) + larg.(p)) in
        pv.(r) <- rv.(r);
        rv.(r) <- lid.(p);
        dirty := !dirty lor (1 lsl r);
        lstate.(p) <- 0;
        larg.(p) <- 0
      end
    in
    let step_omit p =
      lstate.(p) <- 0;
      larg.(p) <- 0
    in
    let step_stale p = do_read p pv.(phys.((p * m) + larg.(p))) in
    let reset p =
      lid.(p) <- inputs.(p);
      lstate.(p) <- 0;
      larg.(p) <- 0
    in
    let dec v = if v < 0 then None else Some v in
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
              let pos = larg.(p) in
              let acc = ref [] in
              for i = 0 to pos - 1 do
                acc := dec racc.((p * m) + i) :: !acc
              done;
              Collecting { pos; acc = !acc }
          | 1 -> Claiming { target = larg.(p) }
          | _ -> Done (if larg.(p) = 1 then Leader else Follower)
        in
        locals.(p) <- { id = lid.(p); phase }
      done
    in
    Some
      {
        Anonmem.Protocol.total = true;
        peek;
        step;
        step_omit;
        step_stale;
        reset;
        halted;
        value;
        sync;
      }
  end

let pp_value _ ppf = function
  | None -> Fmt.string ppf "-"
  | Some id -> Fmt.pf ppf "%d" id

let pp_output _ ppf = function
  | Leader -> Fmt.string ppf "leader"
  | Follower -> Fmt.string ppf "follower"

let pp_local c ppf l =
  let phase ppf = function
    | Collecting { pos; _ } -> Fmt.pf ppf "collect@%d" pos
    | Claiming { target } -> Fmt.pf ppf "claim r%d" (target + 1)
    | Done o -> pp_output c ppf o
  in
  Fmt.pf ppf "{id=%d %a}" l.id phase l.phase
