(** Work-stealing parallel exploration on a pool of OCaml 5 domains —
    the successor to {!Par_explorer}'s layer-synchronous BFS.

    The layer-synchronous design pays two full barriers per BFS layer,
    and every domain idles for the slowest one at each; measured, it
    loses to the sequential engine outright (EXPERIMENTS X6).  This engine
    removes the barriers entirely:

    - Every domain owns a {!Deque} (a Chase–Lev-style work-stealing
      deque): it pushes and pops frontier work at the bottom without
      synchronization against itself, while idle domains {e steal} from
      the top of a uniformly random victim with a single CAS.  Work
      items are self-contained [(canonical key, gid)] pairs, so a thief
      never reads another shard's table (whose arena may be growing
      under its owner's hands).

    - State {e ownership} still follows {!Par_explorer}: the canonical
      key hashes to the owning domain, and only the owner interns keys,
      assigns ids, records incoming edges, checks the invariant, and
      mutates its shard — so the per-shard structures remain lock-free
      by construction.  An expander (owner or thief) sends each
      candidate successor to its owner's inbox (the Treiber-stack
      channel reused from {!Par_explorer.Chan}).

    - Termination is detected by a global in-flight counter: [pending]
      counts undelivered messages plus unexpanded frontier items, and
      every unit's derived units are incremented {e before} the unit
      itself is decremented, so [pending = 0] is reachable only at true
      global quiescence — there is no transient zero to race with, and
      the first worker to observe it stops the pool.  Violations and
      the state limit short-circuit through the same single stop cell
      (first cause wins).

    Without layers, traces are valid executions but not necessarily
    shortest (each parent link is still a real step); state, transition
    and terminal counts remain exactly the sequential BFS's, which the
    differential matrix asserts.  Wait-freedom is decided post-join by
    the same dense-CSR Tarjan pass as {!Par_explorer}.  The engine has
    no checkpoint or governor support (there is no consistent cut to
    snapshot without stopping the pool).

    No production path runs this engine: on the full-size [mc-exact]
    space it reaches 0.81x the sequential BFS at two domains, at 2.3x
    its memory (EXPERIMENTS X6).  It stays only for the benchmark's
    parallel probe and the differential tests, and goes with them. *)

open Repro_util

(** A Chase–Lev-style work-stealing deque.  The owner pushes and pops at
    the bottom; thieves steal at the top with a CAS.  The buffer grows
    before indices ever wrap, so a logical slot is never overwritten
    while a thief may still read it, and OCaml's seq-cst atomics give
    the (stronger than required) ordering of the classic algorithm.
    [steal] returning [None] means "empty or lost a race" — callers
    treat both as a failed attempt and move on. *)
module Deque = struct
  type 'a t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    buf : 'a option array Atomic.t;
  }

  let create ?(capacity = 64) () =
    let cap = max 8 capacity in
    let rec pow2 c = if c >= cap then c else pow2 (c * 2) in
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      buf = Atomic.make (Array.make (pow2 8) None);
    }

  (* Owner-only.  Copies the live window [tp, b) into a doubled buffer at
     the same logical indices; thieves still holding the old buffer read
     stale but never-overwritten slots and then validate with their CAS
     on [top]. *)
  let grow t a tp b =
    let len = Array.length a in
    let a' = Array.make (len * 2) None in
    for i = tp to b - 1 do
      a'.(i land ((2 * len) - 1)) <- a.(i land (len - 1))
    done;
    Atomic.set t.buf a';
    a'

  let push t x =
    let b = Atomic.get t.bottom and tp = Atomic.get t.top in
    let a = Atomic.get t.buf in
    let a = if b - tp >= Array.length a then grow t a tp b else a in
    a.(b land (Array.length a - 1)) <- Some x;
    Atomic.set t.bottom (b + 1)

  let pop t =
    let b = Atomic.get t.bottom - 1 in
    let a = Atomic.get t.buf in
    Atomic.set t.bottom b;
    let tp = Atomic.get t.top in
    if b < tp then begin
      (* already empty: restore *)
      Atomic.set t.bottom tp;
      None
    end
    else begin
      let x = a.(b land (Array.length a - 1)) in
      if b > tp then x
      else begin
        (* last element: race the thieves for it *)
        let won = Atomic.compare_and_set t.top tp (tp + 1) in
        Atomic.set t.bottom (tp + 1);
        if won then x else None
      end
    end

  let steal t =
    let tp = Atomic.get t.top in
    let b = Atomic.get t.bottom in
    if b <= tp then None
    else begin
      let a = Atomic.get t.buf in
      let x = a.(tp land (Array.length a - 1)) in
      if Atomic.compare_and_set t.top tp (tp + 1) then x else None
    end

  (** Owner-side size estimate (exact when quiescent). *)
  let size t = max 0 (Atomic.get t.bottom - Atomic.get t.top)
end

module Make (P : Explorer.CHECKABLE) = struct
  module E = Explorer.Make (P)

  type stats = {
    domains : int;
    states : int;
    transitions : int;
    terminals : int;
    steals : int;  (** successful steals across the pool *)
  }

  type result =
    | Ws_ok of { stats : stats; wait_free : bool; divergent : int list }
    | Ws_invariant_failed of {
        stats : stats;
        message : string;
        trace : (int * E.state) list;
            (** a valid witness execution (not necessarily shortest:
                work stealing abandons layer order); concretized when
                reduced *)
      }
    | Ws_state_limit of int

  type shard = {
    table : State_table.t;
    parent : int Vec.t;  (** (predecessor gid lsl 4) lor pid; -1 at root *)
    edge_src : int Vec.t;  (** (src gid lsl 4) lor pid *)
    edge_dst : int Vec.t;  (** dst gid *)
    mutable terminal : int;  (** counted by the {e expander}'s shard *)
    mutable transitions : int;
  }

  type stop_cause = Running | All_done | Hit_limit | Hit_violation

  (** [explore ~domains ...] — same optional knobs and semantics as
      {!Par_explorer.Make.explore}.  [domains = 1] degrades to a
      deque-driven sequential BFS with zero steals. *)
  let explore ?(max_states = 50_000_000) ?invariant ?stop_expansion
      ?(reduction = false) ~domains ~cfg ~wiring ~inputs () =
    Explorer.guard_processors ~engine:"Ws_explorer.explore" (P.processors cfg);
    Explorer.refuse_choices ~engine:"Ws_explorer.explore" (P.max_choices cfg);
    if domains < 1 then invalid_arg "Ws_explorer.explore: domains < 1";
    let nd = domains in
    let canon = E.symmetry ~reduction ~cfg ~wiring ~inputs in
    let canonical key =
      match canon with Some c -> Canon.canonicalize c key | None -> key
    in
    let owner key = (Hashtbl.hash key land max_int) mod nd in
    let shards =
      Array.init nd (fun _ ->
          {
            table = State_table.create ~key_width:(E.key_width cfg) ();
            parent = Vec.create ();
            edge_src = Vec.create ();
            edge_dst = Vec.create ();
            terminal = 0;
            transitions = 0;
          })
    in
    let deques = Array.init nd (fun _ -> Deque.create ()) in
    (* inbox.(dst): MPSC — any expander pushes batches, only dst drains *)
    let inbox = Array.init nd (fun _ -> Par_explorer.Chan.make ()) in
    let pending = Atomic.make 0 in
    let total_states = Atomic.make 0 in
    let steals = Atomic.make 0 in
    let stop = Atomic.make Running in
    let request cause = ignore (Atomic.compare_and_set stop Running cause) in
    let running () = match Atomic.get stop with Running -> true | _ -> false in
    let violation : (int * string) option Atomic.t = Atomic.make None in
    let worker w =
      let shard = shards.(w) in
      let gid lid = (lid * nd) + w in
      (* Owner-side intern of a key probed absent: id, parent link,
         invariant, frontier push.  The caller's pending unit transmutes
         into the new frontier item's unit — no counter traffic. *)
      let create key ~from =
        let lid = State_table.intern shard.table key in
        ignore (Vec.push shard.parent from);
        Atomic.incr total_states;
        (match invariant with
        | Some check -> (
            match check (E.decode_state cfg key) with
            | Ok () -> ()
            | Error message ->
                ignore
                  (Atomic.compare_and_set violation None
                     (Some (gid lid, message)));
                request Hit_violation)
        | None -> ());
        Deque.push deques.(w) (key, gid lid);
        lid
      in
      (* Owner-side delivery of one message: consume its pending unit
         (or hand it to the fresh frontier item). *)
      let deliver (key, from) =
        (* [from < 0] only for the routed initial state: no edge then. *)
        match State_table.find shard.table key with
        | Some lid ->
            if from >= 0 then begin
              ignore (Vec.push shard.edge_src from);
              ignore (Vec.push shard.edge_dst (gid lid))
            end;
            Atomic.decr pending
        | None ->
            if Atomic.get total_states >= max_states then begin
              request Hit_limit;
              Atomic.decr pending
            end
            else begin
              let lid = create key ~from in
              if from >= 0 then begin
                ignore (Vec.push shard.edge_src from);
                ignore (Vec.push shard.edge_dst (gid lid))
              end
            end
      in
      let drain_inbox () =
        match Par_explorer.Chan.drain inbox.(w) with
        | [] -> ()
        | batches ->
            List.iter (fun batch -> List.iter deliver (List.rev batch))
              (List.rev batches)
      in
      (* Expand one work item (ours or stolen).  Every emitted message's
         pending unit is incremented before this item's unit is
         released, preserving the no-transient-zero invariant. *)
      let expand (key, src_gid) =
        let st = E.decode_state cfg key in
        let expand_it =
          match stop_expansion with Some f -> not (f st) | None -> true
        in
        (if expand_it then
           match E.enabled cfg st with
           | [] -> shard.terminal <- shard.terminal + 1
           | en ->
               let batches = Array.make nd [] in
               List.iter
                 (fun p ->
                   shard.transitions <- shard.transitions + 1;
                   let key' =
                     canonical (snd (E.successor_key cfg wiring st key p))
                   in
                   let from = (src_gid lsl 4) lor p in
                   Atomic.incr pending;
                   let dst = owner key' in
                   batches.(dst) <- (key', from) :: batches.(dst))
                 en;
               for dst = 0 to nd - 1 do
                 if dst = w then List.iter deliver (List.rev batches.(dst))
                 else Par_explorer.Chan.push inbox.(dst) batches.(dst)
               done);
        Atomic.decr pending
      in
      (* xorshift victim picker, deterministically seeded per worker *)
      let rng = ref ((w * 0x9e3779b9) lor 1) in
      let random_victim () =
        let x = !rng in
        let x = x lxor (x lsl 13) in
        let x = x lxor (x lsr 7) in
        let x = x lxor (x lsl 17) in
        rng := x;
        let r = (x land max_int) mod (nd - 1) in
        if r >= w then r + 1 else r
      in
      (if w = 0 then
         (* Seed: the initial state's pending unit was pre-charged by the
            caller; route it through the owner's create. *)
         let init_key =
           canonical (E.encode_state cfg (E.init_state ~cfg ~inputs))
         in
         let o = owner init_key in
         if o = w then ignore (create init_key ~from:(-1))
         else begin
           Par_explorer.Chan.push inbox.(o) [ (init_key, -1) ];
           (* correct the double-count: create would transmute the unit,
              but the message path pre-charges its own *)
           ()
         end);
      while running () do
        drain_inbox ();
        match Deque.pop deques.(w) with
        | Some item -> expand item
        | None ->
            if Atomic.get pending = 0 then request All_done
            else if nd > 1 then begin
              match Deque.steal deques.(random_victim ()) with
              | Some item ->
                  Atomic.incr steals;
                  expand item
              | None -> Domain.cpu_relax ()
            end
            else Domain.cpu_relax ()
      done
    in
    (* One unit for the initial state, charged before the pool starts. *)
    Atomic.set pending 1;
    (* The seed route above pushes the init key as a message when worker 0
       does not own it; that message path consumes the pre-charged unit
       exactly like any other, so no extra accounting is needed. *)
    let pool =
      Array.init (nd - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    Array.iter Domain.join pool;
    (* Post-join: the calling domain owns everything again. *)
    let states =
      Array.fold_left (fun a s -> a + State_table.length s.table) 0 shards
    in
    let stats =
      {
        domains = nd;
        states;
        transitions = Array.fold_left (fun a s -> a + s.transitions) 0 shards;
        terminals = Array.fold_left (fun a s -> a + s.terminal) 0 shards;
        steals = Atomic.get steals;
      }
    in
    let key_of gid = State_table.key_of_id shards.(gid mod nd).table (gid / nd) in
    let parent_of gid = Vec.get shards.(gid mod nd).parent (gid / nd) in
    let trace_of gid =
      let rec up gid acc =
        let packed = parent_of gid in
        if packed < 0 then acc
        else up (packed asr 4) ((packed land 15, key_of gid) :: acc)
      in
      let chain = up gid [] in
      match canon with
      | None -> List.map (fun (p, key) -> (p, E.decode_state cfg key)) chain
      | Some c -> E.concretize ~cfg ~wiring ~canon:c ~inputs (List.map snd chain)
    in
    match Atomic.get stop with
    | Hit_violation ->
        let gid, message = Option.get (Atomic.get violation) in
        Ws_invariant_failed { stats; message; trace = trace_of gid }
    | Hit_limit -> Ws_state_limit states
    | Running | All_done ->
        (* Densify gids and run the shared SCC pass, exactly as the
           layer-synchronous engine does. *)
        let offset = Array.make (nd + 1) 0 in
        for s = 0 to nd - 1 do
          offset.(s + 1) <- offset.(s) + State_table.length shards.(s).table
        done;
        let dense gid = offset.(gid mod nd) + (gid / nd) in
        let e = Array.fold_left (fun a s -> a + Vec.length s.edge_src) 0 shards in
        let deg = Array.make (states + 1) 0 in
        Array.iter
          (fun s ->
            Vec.iteri
              (fun _ packed ->
                let u = dense (packed asr 4) in
                deg.(u + 1) <- deg.(u + 1) + 1)
              s.edge_src)
          shards;
        for i = 1 to states do
          deg.(i) <- deg.(i) + deg.(i - 1)
        done;
        let adj = Array.make (max e 1) 0 in
        let labels = Array.make (max e 1) 0 in
        let cursor = Array.copy deg in
        Array.iter
          (fun s ->
            Vec.iteri
              (fun i packed ->
                let u = dense (packed asr 4) in
                adj.(cursor.(u)) <- dense (Vec.get s.edge_dst i);
                labels.(cursor.(u)) <- packed land 15;
                cursor.(u) <- cursor.(u) + 1)
              s.edge_src)
          shards;
        let comp, _ =
          Repro_util.Scc.tarjan ~n:states ~off:(Array.get deg)
            ~adj:(Array.get adj)
        in
        let bad = Hashtbl.create 8 in
        for u = 0 to states - 1 do
          for i = deg.(u) to deg.(u + 1) - 1 do
            if comp.(u) = comp.(adj.(i)) then Hashtbl.replace bad labels.(i) ()
          done
        done;
        let divergent =
          List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) bad [])
        in
        Ws_ok { stats; wait_free = divergent = []; divergent }
end
