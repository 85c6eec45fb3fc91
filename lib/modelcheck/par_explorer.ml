(** Parallel breadth-first exploration on a pool of OCaml 5 domains.

    The frontier is sharded by state ownership: the canonical key of a
    state hashes to the domain that owns it ([Hashtbl.hash key mod
    domains]), and only the owner ever touches that state's visited-table
    entry, parent link, or outgoing bookkeeping — so the per-shard
    structures need no locks at all.  Work crosses shards through per-pair
    channels: when domain [a] expands a state whose successor belongs to
    domain [b], it appends the successor to a batch bound for [b] and
    pushes the batch onto the lock-free channel [a -> b] (a Treiber stack
    of batches; single producer, drained wholesale by the consumer with
    [Atomic.exchange]).

    Exploration is {b layer-synchronous}: every domain expands its slice
    of BFS layer [k], a barrier, every domain absorbs the batches
    addressed to it (assigning ids to the novel states of layer [k+1]), a
    second barrier, and all domains take the identical continue/stop
    decision from per-worker counters that are only written on the other
    side of a barrier from where they are read.  Layer synchrony is what
    preserves the sequential explorer's guarantees: states are discovered
    at their true BFS depth, so parent chains — and therefore
    counterexample traces — are still shortest, and the visited-state,
    transition and terminal counts are exactly those of the sequential
    BFS (which the differential suite asserts).  Which parent a state
    gets when two same-layer predecessors reach it is arrival-order
    dependent, so traces are deterministic in {e length}, not in the
    identity of the interleaving they witness.

    An invariant violation is flagged atomically and the layer runs to
    completion before the pool stops, so a reported violation always lies
    on the first violating layer — minimal trace length, as in the
    sequential BFS.  The [max_states] bound is likewise checked at layer
    boundaries: a limit is reported only once a layer took the count past
    the bound, which it can overshoot by at most one layer.

    Global ids interleave shards ([gid = local * domains + shard]) and
    edges are recorded by the {e destination}'s owner as batches are
    absorbed; after the pool joins, wait-freedom is decided sequentially
    by the shared {!Scc} pass over the merged edge image, exactly as in
    {!Explorer}.  Composes with [~reduction]: keys are canonicalized
    ({!Canon}) before hashing, so ownership respects symmetry orbits by
    construction. *)

open Repro_util

(* A barrier for [parties] domains.  Mutex + condition rather than a spin
   loop: the pool frequently runs on fewer cores than domains (the
   benches report 1/2/4-domain rows from a single-core box), where
   spinning would serialize horribly. *)
module Barrier = struct
  type t = {
    mutex : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
  }

  let make parties =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      parties;
      count = 0;
      phase = 0;
    }

  let await t =
    Mutex.lock t.mutex;
    let phase = t.phase in
    t.count <- t.count + 1;
    if t.count = t.parties then begin
      t.count <- 0;
      t.phase <- phase + 1;
      Condition.broadcast t.cond
    end
    else
      while t.phase = phase do
        Condition.wait t.cond t.mutex
      done;
    Mutex.unlock t.mutex
end

(* Lock-free channel of message batches (Treiber push / exchange drain). *)
module Chan = struct
  type 'a t = 'a list list Atomic.t

  let make () : 'a t = Atomic.make []

  let push t batch =
    if batch <> [] then begin
      let rec go () =
        let cur = Atomic.get t in
        if not (Atomic.compare_and_set t cur (batch :: cur)) then go ()
      in
      go ()
    end

  let drain t = Atomic.exchange t []
end

module Make (P : Explorer.CHECKABLE) = struct
  module E = Explorer.Make (P)

  type stats = {
    domains : int;
    states : int;
    transitions : int;
    terminals : int;
    layers : int;  (** BFS depth of the deepest state, plus one *)
  }

  type result =
    | Par_ok of { stats : stats; wait_free : bool; divergent : int list }
    | Par_invariant_failed of {
        stats : stats;
        message : string;
        trace : (int * E.state) list;
            (** shortest-length witness; concretized when reduced *)
      }
    | Par_state_limit of int

  type shard = {
    table : State_table.t;
        (** canonical key -> local id, keys held inline in the shard's
            arena (local id = per-shard insertion order) *)
    parent : int Vec.t;  (** (predecessor gid lsl 4) lor pid; -1 at root *)
    edge_src : int Vec.t;  (** (src gid lsl 4) lor pid *)
    edge_dst : int Vec.t;  (** dst gid *)
    mutable terminal : int;  (** count of all-halted states owned here *)
    mutable transitions : int;
    (* written by the owner during a phase, read by everyone on the other
       side of the next barrier — never concurrently *)
    mutable layer_added : int;
    mutable size_snapshot : int;
    mutable violation_seen : bool;
        (** this worker's view of the violation cell, frozen with the other
            snapshots: the decision point must NOT read the atomic directly
            — a fast worker already expanding the next layer could set it
            after a slow worker has read it, splitting the [continue]
            verdict and deadlocking the barrier *)
  }

  (** [explore ~domains ...] — the parallel counterpart of
      {!Explorer.Make.explore}; same optional knobs, same semantics for
      [invariant] / [stop_expansion] / [reduction].  [domains] is the pool
      size (>= 1); the calling domain doubles as worker 0. *)
  let explore ?(max_states = 50_000_000) ?invariant ?stop_expansion
      ?(reduction = false) ~domains ~cfg ~wiring ~inputs () =
    Explorer.guard_processors ~engine:"Par_explorer.explore" (P.processors cfg);
    if domains < 1 then invalid_arg "Par_explorer.explore: domains < 1";
    let nd = domains in
    let canon = E.symmetry ~reduction ~cfg ~wiring ~inputs in
    let canonical key =
      match canon with Some c -> Canon.canonicalize c key | None -> key
    in
    let owner key = (Hashtbl.hash key land max_int) mod nd in
    let shards =
      Array.init nd (fun _ ->
          {
            table =
              State_table.create ~key_width:(E.key_width cfg) ();
            parent = Vec.create ();
            edge_src = Vec.create ();
            edge_dst = Vec.create ();
            terminal = 0;
            transitions = 0;
            layer_added = 0;
            size_snapshot = 0;
            violation_seen = false;
          })
    in
    (* chans.(src).(dst): batches of (canonical key, packed provenance) *)
    let chans = Array.init nd (fun _ -> Array.init nd (fun _ -> Chan.make ())) in
    let barrier = Barrier.make nd in
    let violation : (int * string) option Atomic.t = Atomic.make None in
    let layers = Atomic.make 0 in
    (* Per-worker body.  Frontiers hold local ids. *)
    let worker w =
      let shard = shards.(w) in
      let gid lid = (lid * nd) + w in
      let added = ref 0 in
      let frontier = ref [] and next_frontier = ref [] in
      (* Only called for keys just probed absent, so [intern] inserts. *)
      let create key ~from =
        let lid = State_table.intern shard.table key in
        ignore (Vec.push shard.parent from);
        incr added;
        next_frontier := lid :: !next_frontier;
        (match invariant with
        | Some check -> (
            match check (E.decode_state cfg key) with
            | Ok () -> ()
            | Error message ->
                ignore
                  (Atomic.compare_and_set violation None
                     (Some (gid lid, message))))
        | None -> ());
        lid
      in
      let record_edge ~from ~dst_gid =
        ignore (Vec.push shard.edge_src from);
        ignore (Vec.push shard.edge_dst dst_gid)
      in
      let deliver key ~from =
        (* Owner-side arrival: resolve or mint the id, then record the
           edge (the destination's owner records every edge). *)
        let lid =
          match State_table.find shard.table key with
          | Some lid -> lid
          | None -> create key ~from
        in
        record_edge ~from ~dst_gid:(gid lid)
      in
      (* Seed: the initial state belongs to whoever owns its key. *)
      let init_key = canonical (E.encode_state cfg (E.init_state ~cfg ~inputs)) in
      if owner init_key = w then begin
        ignore (create init_key ~from:(-1));
        frontier := !next_frontier;
        next_frontier := []
      end;
      let continue = ref true in
      while !continue do
        (* Phase 1: expand this shard's slice of the current layer. *)
        let batches = Array.make nd [] in
        List.iter
          (fun lid ->
            let key = State_table.key_of_id shard.table lid in
            let st = E.decode_state cfg key in
            let expand =
              match stop_expansion with Some f -> not (f st) | None -> true
            in
            if expand then
              match E.enabled cfg st with
              | [] -> shard.terminal <- shard.terminal + 1
              | en ->
                  List.iter
                    (fun p ->
                      shard.transitions <- shard.transitions + 1;
                      let key' =
                        canonical (snd (E.successor_key cfg wiring st key p))
                      in
                      let from = (gid lid lsl 4) lor p in
                      let dst = owner key' in
                      if dst = w then deliver key' ~from
                      else batches.(dst) <- (key', from) :: batches.(dst))
                    en)
          (List.rev !frontier);
        Array.iteri (fun dst batch -> Chan.push chans.(w).(dst) batch) batches;
        Barrier.await barrier;
        (* Phase 2: absorb everything addressed to this shard. *)
        for src = 0 to nd - 1 do
          if src <> w then
            List.iter
              (fun batch ->
                List.iter (fun (key, from) -> deliver key ~from) (List.rev batch))
              (List.rev (Chan.drain chans.(src).(w)))
        done;
        shard.layer_added <- !added;
        shard.size_snapshot <- State_table.length shard.table;
        shard.violation_seen <- Atomic.get violation <> None;
        added := 0;
        Barrier.await barrier;
        (* Decision point: every worker computes the same verdict from
           snapshots frozen by the barrier.  The violation cell is read
           only through the frozen per-shard views: any CAS is visible to
           at least its own worker's snapshot, and nobody rewrites a
           snapshot until every worker has passed the next barrier, so the
           OR below is identical across workers. *)
        let total_added = ref 0 and total_states = ref 0 in
        let violated = ref false in
        Array.iter
          (fun s ->
            total_added := !total_added + s.layer_added;
            total_states := !total_states + s.size_snapshot;
            if s.violation_seen then violated := true)
          shards;
        if w = 0 && !total_added > 0 then Atomic.incr layers;
        if !total_added = 0 || !violated || !total_states > max_states then
          continue := false
        else begin
          frontier := List.rev !next_frontier;
          next_frontier := []
        end
      done
    in
    let pool = Array.init (nd - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
    worker 0;
    Array.iter Domain.join pool;
    (* Post-pool: the calling domain owns everything again. *)
    let states =
      Array.fold_left (fun a s -> a + State_table.length s.table) 0 shards
    in
    let stats =
      {
        domains = nd;
        states;
        transitions = Array.fold_left (fun a s -> a + s.transitions) 0 shards;
        terminals = Array.fold_left (fun a s -> a + s.terminal) 0 shards;
        layers = Atomic.get layers;
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
      | None ->
          List.map (fun (p, key) -> (p, E.decode_state cfg key)) chain
      | Some c ->
          E.concretize ~cfg ~wiring ~canon:c ~inputs (List.map snd chain)
    in
    match Atomic.get violation with
    | Some (gid, message) ->
        Par_invariant_failed { stats; message; trace = trace_of gid }
    | None ->
        if states > max_states then Par_state_limit states
        else begin
          (* Densify gids (shards have unequal sizes, so the interleaved
             gids are not contiguous) and run the shared SCC pass. *)
          let offset = Array.make (nd + 1) 0 in
          for s = 0 to nd - 1 do
            offset.(s + 1) <- offset.(s) + State_table.length shards.(s).table
          done;
          let dense gid = offset.(gid mod nd) + (gid / nd) in
          let e = stats.transitions in
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
            Scc.tarjan ~n:states ~off:(Array.get deg) ~adj:(Array.get adj)
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
          Par_ok { stats; wait_free = divergent = []; divergent }
        end

  (** Parallel counterpart of {!Explorer.Make.check_all_wirings}: same
      summary type, same error messages, so {!Core} and the CLI can swap
      engines behind one interface. *)
  let check_all_wirings ?max_states ?invariant ?(require_wait_free = true)
      ?on_wiring ?wirings ?(reduction = false) ~domains ~cfg ~inputs () =
    Wiring_sweep.run ?wirings ?on_wiring ~n:(P.processors cfg)
      ~m:(P.registers cfg) ~init:Explorer.empty_summary
      (fun ~resume:_ ~ckpt_extra:_ wiring summary ->
        match
          explore ?max_states ?invariant ?stop_expansion:None ~reduction
            ~domains ~cfg ~wiring ~inputs ()
        with
        | Par_state_limit k -> Error (Explorer.limit_error k)
        | Par_invariant_failed { message; _ } ->
            Error (Explorer.invariant_error wiring message)
        | Par_ok { divergent; _ } when require_wait_free && divergent <> [] ->
            Error (Explorer.diverge_error wiring divergent)
        | Par_ok { stats; wait_free; _ } ->
            Ok
              (Explorer.add_wiring summary ~states:stats.states
                 ~transitions:stats.transitions ~terminals:stats.terminals
                 ~wait_free))
end
