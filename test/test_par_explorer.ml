(* Differential tests of the four exploration engines — sequential BFS
   (Explorer.explore), sequential DFS (Explorer.check_exhaustive), the
   sharded layer-synchronous parallel BFS (Par_explorer.explore) and the
   work-stealing parallel BFS (Ws_explorer.explore) — with and without
   symmetry reduction, plus QCheck soundness properties of the Canon
   orbit-minimum canonicalization itself, a model-based QCheck test of
   the Chase–Lev work-stealing deque against a sequential oracle, a
   multi-domain steal stress test, and termination-detection
   regressions for the work-stealing pool (trivial spaces, violations
   and state limits mid-steal must all produce structured results,
   never a hang).

   The contract under test: for every checkable protocol, wiring and
   input assignment, all engines agree on the invariant verdict, the
   wait-freedom verdict, and — between the unreduced BFS engines — the
   exact visited-state / transition / terminal counts; reduced runs agree
   with each other exactly and with unreduced runs on verdicts; and every
   counterexample trace replays through Witness.Replay to a state that
   actually violates the invariant.

   Tiny configurations (< 5 s total) run under the @mc-smoke alias inside
   `dune runtest`; the full 3-processor parity matrix and the unbounded
   3-processor reduction run are gated behind MC_LONG=1 (`make mc-long`). *)

module Canon = Modelcheck.Canon

let long_mode = Sys.getenv_opt "MC_LONG" <> None
let qcheck_count = if long_mode then 500 else 120

(* ------------------------------------------------------------------ *)
(* The differential harness, generic in the checkable protocol.       *)
(* ------------------------------------------------------------------ *)

module Diff (P : Modelcheck.Explorer.CHECKABLE) = struct
  module E = Modelcheck.Explorer.Make (P)
  module Par = Modelcheck.Par_explorer.Make (P)
  module Ws = Modelcheck.Ws_explorer.Make (P)
  module Replay = Modelcheck.Witness.Replay (P)

  type verdicts = {
    states : int;
    transitions : int;
    terminals : int;
    divergent : int list;
  }

  let seq_bfs ?invariant ?stop_expansion ?(reduction = false) ~cfg ~wiring
      ~inputs () =
    match E.explore ?invariant ?stop_expansion ~reduction ~cfg ~wiring ~inputs () with
    | E.Explored sp ->
        {
          states = E.state_count sp;
          transitions = E.transition_count sp;
          terminals = List.length sp.E.terminal;
          divergent = E.divergent_processors sp;
        }
    | E.Invariant_failed (_, v) ->
        Alcotest.failf "sequential BFS: unexpected invariant failure: %s"
          v.E.message
    | E.Exhausted _ -> Alcotest.fail "sequential BFS: unexpected exhaustion"

  let par_bfs ?invariant ?stop_expansion ?(reduction = false) ~domains ~cfg
      ~wiring ~inputs () =
    match
      Par.explore ?invariant ?stop_expansion ~reduction ~domains ~cfg ~wiring
        ~inputs ()
    with
    | Par.Par_ok { stats; divergent; _ } ->
        {
          states = stats.Par.states;
          transitions = stats.Par.transitions;
          terminals = stats.Par.terminals;
          divergent;
        }
    | Par.Par_invariant_failed { message; _ } ->
        Alcotest.failf "parallel BFS: unexpected invariant failure: %s" message
    | Par.Par_state_limit k -> Alcotest.failf "parallel BFS: state limit %d" k

  let ws_bfs ?invariant ?stop_expansion ?(reduction = false) ~domains ~cfg
      ~wiring ~inputs () =
    match
      Ws.explore ?invariant ?stop_expansion ~reduction ~domains ~cfg ~wiring
        ~inputs ()
    with
    | Ws.Ws_ok { stats; divergent; _ } ->
        {
          states = stats.Ws.states;
          transitions = stats.Ws.transitions;
          terminals = stats.Ws.terminals;
          divergent;
        }
    | Ws.Ws_invariant_failed { message; _ } ->
        Alcotest.failf "work-stealing BFS: unexpected invariant failure: %s"
          message
    | Ws.Ws_state_limit k ->
        Alcotest.failf "work-stealing BFS: state limit %d" k

  let check_verdicts name (a : verdicts) (b : verdicts) ~exact_counts =
    if exact_counts then begin
      Alcotest.(check int) (name ^ ": states") a.states b.states;
      Alcotest.(check int) (name ^ ": transitions") a.transitions b.transitions;
      Alcotest.(check int) (name ^ ": terminals") a.terminals b.terminals
    end;
    Alcotest.(check (list int)) (name ^ ": divergent set") a.divergent b.divergent

  (* Full matrix on one (wiring, inputs) cell: sequential vs parallel at
     each domain count, unreduced (exact count parity) and reduced (exact
     parity between reduced runs, verdict parity against unreduced);
     plus DFS verdict agreement on acyclic spaces. *)
  let cell ?invariant ?stop_expansion ?(domain_counts = [ 1; 2; 4 ]) ~name ~cfg
      ~wiring ~inputs () =
    let seq = seq_bfs ?invariant ?stop_expansion ~cfg ~wiring ~inputs () in
    let red =
      seq_bfs ?invariant ?stop_expansion ~reduction:true ~cfg ~wiring ~inputs ()
    in
    Alcotest.(check bool)
      (name ^ ": reduction never grows the space")
      true
      (red.states <= seq.states);
    Alcotest.(check bool)
      (name ^ ": reduced/unreduced wait-freedom verdicts agree")
      (seq.divergent = []) (red.divergent = []);
    List.iter
      (fun domains ->
        let nm = Printf.sprintf "%s par%d" name domains in
        let par =
          par_bfs ?invariant ?stop_expansion ~domains ~cfg ~wiring ~inputs ()
        in
        check_verdicts nm seq par ~exact_counts:true;
        let parr =
          par_bfs ?invariant ?stop_expansion ~reduction:true ~domains ~cfg
            ~wiring ~inputs ()
        in
        check_verdicts (nm ^ " reduced") red parr ~exact_counts:true;
        (* Work-stealing columns: exact count parity too — state
           ownership and edge recording are independent of steal order. *)
        let ws =
          ws_bfs ?invariant ?stop_expansion ~domains ~cfg ~wiring ~inputs ()
        in
        check_verdicts (nm ^ " ws") seq ws ~exact_counts:true;
        let wsr =
          ws_bfs ?invariant ?stop_expansion ~reduction:true ~domains ~cfg
            ~wiring ~inputs ()
        in
        check_verdicts (nm ^ " ws reduced") red wsr ~exact_counts:true)
      domain_counts;
    (* DFS engine: verdict-level agreement (cycle <-> nonempty divergent
       set; states/transitions equal on every run without pruning). *)
    match
      E.check_exhaustive ?invariant ?stop_expansion ~cfg ~wiring ~inputs ()
    with
    | E.Dfs_ok s ->
        Alcotest.(check (list int)) (name ^ ": DFS acyclic = BFS wait-free") []
          seq.divergent;
        if stop_expansion = None then begin
          Alcotest.(check int) (name ^ ": DFS state count") seq.states s.E.dfs_states;
          Alcotest.(check int)
            (name ^ ": DFS transition count")
            seq.transitions s.E.dfs_transitions;
          Alcotest.(check int)
            (name ^ ": DFS terminal count")
            seq.terminals s.E.dfs_terminals
        end
    | E.Dfs_cycle _ ->
        Alcotest.(check bool) (name ^ ": DFS cycle = BFS divergence") true
          (seq.divergent <> [])
    | E.Dfs_invariant_failed { message; _ } ->
        Alcotest.failf "%s: DFS unexpected invariant failure: %s" name message
    | E.Dfs_exhausted _ -> Alcotest.failf "%s: DFS unexpected exhaustion" name

  (* Counterexample parity on a violating configuration: all engines must
     report the violation, BFS traces must have equal (minimal) length,
     and every trace must replay through Witness.Replay to a state the
     invariant rejects. *)
  let violation_cell ?(domain_counts = [ 1; 2; 4 ]) ?(reduction = false) ~name
      ~cfg ~wiring ~inputs ~invariant () =
    let replay_and_check nm path =
      let final = Replay.final ~cfg ~wiring ~inputs path in
      match invariant final with
      | Error _ -> ()
      | Ok () ->
          Alcotest.failf "%s: replayed trace ends in a non-violating state" nm
    in
    let seq_len =
      match E.explore ~invariant ~reduction ~cfg ~wiring ~inputs () with
      | E.Invariant_failed (_, v) ->
          replay_and_check (name ^ " seq-bfs") (List.map fst v.E.trace);
          List.length v.E.trace
      | _ -> Alcotest.failf "%s: sequential BFS missed the violation" name
    in
    (* The DFS decides and keeps no trace: its state must fail the
       invariant with the message it reports. *)
    (match E.check_exhaustive ~invariant ~reduction ~cfg ~wiring ~inputs () with
    | E.Dfs_invariant_failed { message; state; _ } ->
        Alcotest.(check (result unit string))
          (name ^ ": DFS state fails with its message")
          (Error message) (invariant state)
    | _ -> Alcotest.failf "%s: DFS missed the violation" name);
    List.iter
      (fun domains ->
        match
          Par.explore ~invariant ~reduction ~domains ~cfg ~wiring ~inputs ()
        with
        | Par.Par_invariant_failed { trace; _ } ->
            replay_and_check
              (Printf.sprintf "%s par%d" name domains)
              (List.map fst trace);
            Alcotest.(check int)
              (Printf.sprintf "%s par%d: minimal trace length" name domains)
              seq_len (List.length trace)
        | _ ->
            Alcotest.failf "%s: parallel BFS (%d domains) missed the violation"
              name domains)
      domain_counts;
    List.iter
      (fun domains ->
        match
          Ws.explore ~invariant ~reduction ~domains ~cfg ~wiring ~inputs ()
        with
        | Ws.Ws_invariant_failed { trace; _ } ->
            (* Work-stealing traces are valid executions but not
               necessarily shortest (steals abandon layer order), so
               replay only — no minimal-length assertion. *)
            replay_and_check
              (Printf.sprintf "%s ws%d" name domains)
              (List.map fst trace)
        | _ ->
            Alcotest.failf
              "%s: work-stealing BFS (%d domains) missed the violation" name
              domains)
      domain_counts
end

(* ------------------------------------------------------------------ *)
(* Protocol instantiations.                                           *)
(* ------------------------------------------------------------------ *)

module Snap = Algorithms.Snapshot
module SnapDiff = Diff (Modelcheck.Codecs.Snapshot)
module WsDiff = Diff (Modelcheck.Codecs.Write_scan)
module DcDiff = Diff (Modelcheck.Codecs.Double_collect)
module ConsDiff = Diff (Modelcheck.Codecs.Consensus)
module RenDiff = Diff (Modelcheck.Codecs.Renaming)

let wirings2 = Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true
let wirings3 = Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true

let test_snapshot_n2_matrix () =
  let cfg = Snap.standard ~n:2 in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          SnapDiff.cell ~domain_counts:[ 1; 2; 4 ]
            ~name:
              (Fmt.str "snapshot n=2 %a %a" Anonmem.Wiring.pp wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~invariant:(Core.snapshot_invariant cfg inputs)
            ~cfg ~wiring ~inputs ())
        [ [| 1; 2 |]; [| 1; 1 |] ])
    wirings2

let snap3_stop level (st : SnapDiff.E.state) =
  Array.exists
    (fun l -> Snap.level_of_local l >= level)
    st.SnapDiff.E.locals

let test_snapshot_n3_bounded () =
  (* 3-processor parity on the level-bounded prefix of the space: the
     bound predicate is symmetric (an exists over processors), so it
     composes with reduction.  Smoke uses level 1 over three wirings;
     MC_LONG raises the bound to level 2. *)
  let cfg = Snap.standard ~n:3 in
  let level = if long_mode then 2 else 1 in
  let some_wirings =
    match wirings3 with
    | a :: b :: c :: _ -> if long_mode then [ a; b; c ] else [ a; b ]
    | _ -> assert false
  in
  let inputs_choices =
    if long_mode then [ [| 1; 1; 1 |]; [| 1; 1; 2 |] ] else [ [| 1; 1; 1 |] ]
  in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          SnapDiff.cell
            ~name:
              (Fmt.str "snapshot n=3 lvl<%d %a %a" level Anonmem.Wiring.pp
                 wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~invariant:(Core.snapshot_invariant cfg inputs)
            ~stop_expansion:(snap3_stop level) ~cfg ~wiring ~inputs ())
        inputs_choices)
    some_wirings

let test_snapshot_n3_full_matrix_long () =
  (* The full 3-processor parity matrix — every wiring with processor 0
     pinned, level-2-bounded spaces, sequential vs parallel vs reduced. *)
  if not long_mode then ()
  else begin
    let cfg = Snap.standard ~n:3 in
    let inputs = [| 1; 1; 1 |] in
    List.iter
      (fun wiring ->
        SnapDiff.cell
          ~name:(Fmt.str "matrix %a" Anonmem.Wiring.pp wiring)
          ~invariant:(Core.snapshot_invariant cfg inputs)
          ~stop_expansion:(snap3_stop 2) ~cfg ~wiring ~inputs ())
      wirings3
  end

let test_snapshot_n3_unbounded_reduction_long () =
  (* The acceptance benchmark's claim as a test: on the full (unbounded)
     single-group 3-processor space, reduction shrinks the visited set by
     at least 2x while preserving both verdicts. *)
  if not long_mode then ()
  else begin
    let cfg = Snap.standard ~n:3 in
    let inputs = [| 1; 1; 1 |] in
    let wiring = Anonmem.Wiring.identity ~n:3 ~m:3 in
    let module E = SnapDiff.E in
    let run reduction =
      match
        E.check_exhaustive ~reduction
          ~invariant:(Core.snapshot_invariant cfg inputs)
          ~cfg ~wiring ~inputs ()
      with
      | E.Dfs_ok s -> s.E.dfs_states
      | _ -> Alcotest.fail "single-group snapshot must verify"
    in
    let full = run false and reduced = run true in
    Alcotest.(check bool)
      (Fmt.str "full space %d >= 2x reduced %d" full reduced)
      true
      (full >= 2 * reduced)
  end

(* The snapshot codec with every field a full byte: packed keys equal
   to the wide keys, the layout the engines stored before packing. *)
module Wide_snap = struct
  include Modelcheck.Codecs.Snapshot

  let local_bits cfg _ = Array.make (local_width cfg) 8
  let value_bits cfg _ = Array.make (value_width cfg) 8
end

let test_snapshot_n3_packed_long () =
  (* The benchmark's mc-exact space (a trivial-group wiring, inputs
     1,1,1): the packed DFS keeps its pinned counts, and the wide-key
     DFS agrees on every count, the maximum depth included. *)
  if not long_mode then ()
  else begin
    let cfg = Snap.standard ~n:3 in
    let inputs = [| 1; 1; 1 |] in
    let wiring = Anonmem.Wiring.of_lists [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 2; 0 ] ] in
    let module E = SnapDiff.E in
    let module W = Modelcheck.Explorer.Make (Wide_snap) in
    let invariant = Core.snapshot_invariant cfg inputs in
    let packed =
      match E.check_exhaustive ~invariant ~cfg ~wiring ~inputs () with
      | E.Dfs_ok s -> [ s.E.dfs_states; s.dfs_transitions; s.dfs_terminals; s.dfs_max_depth ]
      | _ -> Alcotest.fail "the packed DFS must verify"
    in
    Alcotest.(check (list int)) "pinned counts" [ 1_721_671; 4_979_918; 27 ]
      (List.filteri (fun i _ -> i < 3) packed);
    let wide =
      match
        W.check_exhaustive
          ~invariant:(fun (st : W.state) ->
            invariant { E.locals = st.W.locals; registers = st.W.registers })
          ~cfg ~wiring ~inputs ()
      with
      | W.Dfs_ok s -> [ s.W.dfs_states; s.dfs_transitions; s.dfs_terminals; s.dfs_max_depth ]
      | _ -> Alcotest.fail "the wide DFS must verify"
    in
    Alcotest.(check (list int)) "packed = wide" wide packed
  end

let test_write_scan_divergence_parity () =
  (* Cyclic transition graphs: the non-terminating write-scan loop.  Both
     processors diverge under every engine, reduced or not. *)
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          WsDiff.cell
            ~name:
              (Fmt.str "write-scan %a %a" Anonmem.Wiring.pp wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~cfg ~wiring ~inputs ())
        [ [| 1; 2 |]; [| 1; 1 |] ])
    wirings2

let test_double_collect_matrix () =
  let cfg = Algorithms.Double_collect.standard ~n:2 in
  List.iter
    (fun wiring ->
      DcDiff.cell
        ~name:(Fmt.str "double-collect %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 1 |] ())
    wirings2

let test_consensus_bounded_matrix () =
  let cfg = Algorithms.Consensus.standard ~n:2 in
  let stop (st : ConsDiff.E.state) =
    Array.exists
      (fun (l : Algorithms.Consensus.local) -> l.Algorithms.Consensus.ts >= 2)
      st.ConsDiff.E.locals
  in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          ConsDiff.cell
            ~name:
              (Fmt.str "consensus %a %a" Anonmem.Wiring.pp wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~stop_expansion:stop ~cfg ~wiring ~inputs ())
        [ [| 1; 2 |]; [| 1; 1 |] ])
    wirings2

let test_renaming_matrix () =
  let cfg = Algorithms.Renaming.standard ~n:2 in
  List.iter
    (fun wiring ->
      RenDiff.cell
        ~name:(Fmt.str "renaming %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 1 |] ())
    wirings2

(* --- counterexamples: planted bugs found, traces replay ------------- *)

let no_output_invariant cfg (st : SnapDiff.E.state) =
  if Array.exists (fun l -> Snap.output cfg l <> None) st.SnapDiff.E.locals
  then Error "planted: someone terminated"
  else Ok ()

let test_planted_snapshot_counterexample () =
  let cfg = Snap.standard ~n:2 in
  List.iter
    (fun wiring ->
      SnapDiff.violation_cell ~domain_counts:[ 1; 2; 4 ]
        ~name:(Fmt.str "planted snapshot %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 2 |]
        ~invariant:(no_output_invariant cfg) ())
    wirings2

let test_planted_snapshot_counterexample_reduced () =
  (* Same planted bug on a single-group assignment with reduction on:
     counterexamples of the quotient space must concretize to replayable
     executions of the same minimal length. *)
  let cfg = Snap.standard ~n:2 in
  List.iter
    (fun wiring ->
      SnapDiff.violation_cell ~reduction:true
        ~name:(Fmt.str "planted snapshot reduced %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 1 |]
        ~invariant:(no_output_invariant cfg) ())
    wirings2

let test_planted_double_collect_counterexample () =
  let cfg = Algorithms.Double_collect.standard ~n:2 in
  let invariant (st : DcDiff.E.state) =
    if
      Array.exists
        (fun l -> Algorithms.Double_collect.output cfg l <> None)
        st.DcDiff.E.locals
    then Error "planted: someone terminated"
    else Ok ()
  in
  DcDiff.violation_cell ~name:"planted double-collect"
    ~cfg
    ~wiring:(Anonmem.Wiring.identity ~n:2 ~m:2)
    ~inputs:[| 1; 2 |] ~invariant ()

let test_planted_trace_ids_from_arena_table () =
  (* A planted 3-processor violation deep enough for a nontrivial space:
     the BFS counterexample is reconstructed purely from packed parent
     words and [key_of_id] arena reads of the new State_table, must
     replay through Witness.Replay to a state the invariant rejects, and
     every state along the trace must be interned in the final table. *)
  let cfg = Snap.standard ~n:3 in
  let wiring = Anonmem.Wiring.identity ~n:3 ~m:3 in
  let inputs = [| 1; 2; 3 |] in
  let module E = SnapDiff.E in
  let invariant (st : E.state) =
    if Array.exists (fun l -> Snap.level_of_local l >= 2) st.E.locals then
      Error "planted: level 2 reached"
    else Ok ()
  in
  match E.explore ~invariant ~cfg ~wiring ~inputs () with
  | E.Invariant_failed (space, v) ->
      let module St = Modelcheck.State_table in
      let path = List.map fst v.E.trace in
      Alcotest.(check bool) "nontrivial trace" true (List.length path > 5);
      let final = SnapDiff.Replay.final ~cfg ~wiring ~inputs path in
      (match invariant final with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "replayed trace ends in a non-violating state");
      Alcotest.(check string) "replay endpoint is the reported state"
        (E.encode_state cfg (snd (List.nth v.E.trace (List.length v.E.trace - 1))))
        (E.encode_state cfg final);
      List.iter
        (fun (_, st) ->
          Alcotest.(check bool) "trace state interned in the arena table" true
            (E.mem space (E.encode_state cfg st)))
        v.E.trace
  | _ -> Alcotest.fail "planted n=3 violation missed"

let test_fig3_nd_planted_search () =
  (* The C2 search on the generic DFS under the nondeterministic write
     order: single-group inputs refute the non-atomicity target on every
     wiring (fast).  Under MC_LONG, additionally reproduce the EXPERIMENTS
     C2 row of the cyclic order: no (1,1,2)/{1} witness on any of the 36
     wirings — [Refuted] here is the documented result, not a miss. *)
  let refuted = function Core.Refuted _ -> true | _ -> false in
  Alcotest.(check bool) "single group: refuted" true
    (refuted
       (Core.search_nonatomic ~write_order:Any
          ~wirings:[ Anonmem.Wiring.identity ~n:3 ~m:3 ]
          ([| 1; 1; 1 |], Core.Iset.of_list [ 1 ])));
  if long_mode then
    match
      Core.search_nonatomic ~write_order:Cyclic ~wirings:wirings3
        ([| 1; 1; 2 |], Core.Iset.of_list [ 1 ])
    with
    | Core.Refuted { states } ->
        Alcotest.(check int) "cyclic (1,1,2)/{1}: generic total" 30_475_603
          states
    | _ -> Alcotest.fail "cyclic (1,1,2)/{1} not refuted"

(* ------------------------------------------------------------------ *)
(* The work-stealing deque and pool termination.                      *)
(* ------------------------------------------------------------------ *)

module Deque = Modelcheck.Ws_explorer.Deque

(* Model-based: a random push/pop/steal script applied to the deque and
   to a list oracle (top at the head, bottom at the tail).  Without
   concurrency every CAS is uncontended, so pop must return the newest
   element, steal the oldest, and both must agree with the oracle
   exactly — including across buffer growth (capacity starts at 8). *)
let prop_deque_sequential_model =
  QCheck.Test.make ~name:"deque: push/pop/steal vs sequential oracle"
    ~count:qcheck_count
    QCheck.(list_of_size Gen.(0 -- 200) (int_bound 2))
    (fun ops ->
      let q = Deque.create ~capacity:8 () in
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr counter;
              Deque.push q !counter;
              model := !model @ [ !counter ];
              Deque.size q = List.length !model
          | 1 ->
              let expect =
                match List.rev !model with
                | [] -> None
                | x :: rest ->
                    model := List.rev rest;
                    Some x
              in
              Deque.pop q = expect && Deque.size q = List.length !model
          | _ ->
              let expect =
                match !model with
                | [] -> None
                | x :: rest ->
                    model := rest;
                    Some x
              in
              Deque.steal q = expect && Deque.size q = List.length !model)
        ops)

let test_ws_deque_steal_stress () =
  (* One owner pushing (and occasionally popping) [0, n) while three
     thief domains hammer [steal] on the same deque: every item must be
     consumed exactly once — no loss, no duplication — and the test must
     terminate (a lost item would hang the consumed-counter loops, so
     both loops carry a bail-out that fails the multiset check). *)
  let n = 10_000 in
  let q = Deque.create () in
  let consumed = Atomic.make 0 in
  let thief () =
    let mine = ref [] in
    let tries = ref 0 in
    while Atomic.get consumed < n && !tries < 200_000_000 do
      incr tries;
      match Deque.steal q with
      | Some x ->
          mine := x :: !mine;
          Atomic.incr consumed
      | None -> Domain.cpu_relax ()
    done;
    !mine
  in
  let thieves = Array.init 3 (fun _ -> Domain.spawn thief) in
  let mine = ref [] in
  let take = function
    | Some x ->
        mine := x :: !mine;
        Atomic.incr consumed
    | None -> ()
  in
  for i = 0 to n - 1 do
    Deque.push q i;
    if i land 7 = 0 then take (Deque.pop q)
  done;
  let tries = ref 0 in
  while Atomic.get consumed < n && !tries < 200_000_000 do
    incr tries;
    match Deque.pop q with
    | Some _ as r -> take r
    | None -> Domain.cpu_relax ()
  done;
  let stolen = Array.to_list thieves |> List.concat_map Domain.join in
  let all = List.sort compare (!mine @ stolen) in
  Alcotest.(check (list int))
    "every pushed item consumed exactly once"
    (List.init n Fun.id) all

let test_ws_single_state_space () =
  (* Degenerate frontier: expansion stopped at the initial state.  Every
     domain count must detect global quiescence from the in-flight
     counter (one unit, transmuted into the root's frontier item and
     released unexpanded) and return a structured Ws_ok — not hang. *)
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let module W = SnapDiff.Ws in
  List.iter
    (fun domains ->
      match
        W.explore ~stop_expansion:(fun _ -> true) ~domains ~cfg ~wiring ~inputs
          ()
      with
      | W.Ws_ok { stats; wait_free; divergent } ->
          Alcotest.(check int)
            (Fmt.str "ws%d: single state" domains)
            1 stats.W.states;
          Alcotest.(check int)
            (Fmt.str "ws%d: no transitions" domains)
            0 stats.W.transitions;
          (* A stopped state is not terminal: it was never expanded. *)
          Alcotest.(check int)
            (Fmt.str "ws%d: no terminals" domains)
            0 stats.W.terminals;
          Alcotest.(check bool)
            (Fmt.str "ws%d: trivially wait-free" domains)
            true
            (wait_free && divergent = [])
      | _ -> Alcotest.failf "ws%d: single-state space must return Ws_ok" domains)
    [ 1; 2; 4 ]

let test_ws_state_limit_mid_steal () =
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let module W = SnapDiff.Ws in
  match W.explore ~max_states:100 ~domains:4 ~cfg ~wiring ~inputs () with
  | W.Ws_state_limit k ->
      (* Concurrent interns may overshoot the limit by in-flight creates,
         never undershoot. *)
      Alcotest.(check bool) "limit reached" true (k >= 100)
  | _ -> Alcotest.fail "state limit must yield Ws_state_limit"

(* The intra-space parallel engines keep their own [max_states] bound and
   draw its line in the same place: a limit is reported only when a state
   beyond the bound was discovered.  Figure 3 at n=2 (identity wiring,
   inputs 1,2) has 2,827 states, so a bound of 2,827 explores the whole
   space and 2,826 trips both.  The work-stealing pool runs on one domain
   here: concurrent interns may overshoot its bound by in-flight
   creates.  (The sequential engines stop early only on a governor.) *)
let test_state_limit_boundary () =
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let space = 2827 in
  let open SnapDiff in
  let unexpected name = Alcotest.failf "%s: unexpected verdict" name in
  (* [Ok states] for a completed exploration, [Error ()] for a limit. *)
  let engines max_states =
    [
      ( "parallel",
        match Par.explore ~max_states ~domains:2 ~cfg ~wiring ~inputs () with
        | Par.Par_ok { stats; _ } -> Ok stats.Par.states
        | Par.Par_state_limit _ -> Error ()
        | _ -> unexpected "parallel" );
      ( "work-stealing",
        match Ws.explore ~max_states ~domains:1 ~cfg ~wiring ~inputs () with
        | Ws.Ws_ok { stats; _ } -> Ok stats.Ws.states
        | Ws.Ws_state_limit _ -> Error ()
        | _ -> unexpected "work-stealing" );
    ]
  in
  let verdict = Alcotest.(result int unit) in
  List.iter
    (fun (name, r) ->
      Alcotest.check verdict (name ^ ": bound = space") (Ok space) r)
    (engines space);
  List.iter
    (fun (name, r) ->
      Alcotest.check verdict (name ^ ": bound = space - 1") (Error ()) r)
    (engines (space - 1))

let test_ws_violation_mid_steal () =
  (* A planted violation with 4 domains on one core: the first worker to
     see it (owner or thief) publishes through the violation cell, the
     stop cell short-circuits the pool, and the parent-chain trace
     replays to a state the invariant rejects. *)
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let module W = SnapDiff.Ws in
  let invariant = no_output_invariant cfg in
  match W.explore ~invariant ~domains:4 ~cfg ~wiring ~inputs () with
  | W.Ws_invariant_failed { trace; message; _ } ->
      Alcotest.(check bool) "planted message" true
        (String.length message > 0);
      let final =
        SnapDiff.Replay.final ~cfg ~wiring ~inputs (List.map fst trace)
      in
      (match invariant final with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "ws trace replays to a non-violating state")
  | _ -> Alcotest.fail "4-domain pool missed the planted violation"

(* ------------------------------------------------------------------ *)
(* Canon soundness properties (QCheck).                               *)
(* ------------------------------------------------------------------ *)

module SnapE = SnapDiff.E

let canon_inputs_choices = [ [| 1; 1; 1 |]; [| 1; 1; 2 |]; [| 1; 2; 3 |] ]
let wirings3_arr = Array.of_list wirings3

(* A reachable state's key, driven by a QCheck-supplied walk. *)
let reachable_key cfg wiring inputs walk =
  let st =
    List.fold_left
      (fun st c ->
        match SnapE.enabled cfg st with
        | [] -> st
        | en ->
            SnapE.successor cfg wiring st
              (List.nth en (abs c mod List.length en)))
      (SnapE.init_state ~cfg ~inputs)
      walk
  in
  SnapE.encode_state cfg st

let canon_setup (wsel, isel) =
  let cfg = Snap.standard ~n:3 in
  let wiring = wirings3_arr.(abs wsel mod Array.length wirings3_arr) in
  let inputs =
    List.nth canon_inputs_choices (abs isel mod List.length canon_inputs_choices)
  in
  let canon =
    Canon.make
      ~local_width:(Modelcheck.Codecs.Snapshot.local_width cfg)
      ~value_width:(Modelcheck.Codecs.Snapshot.value_width cfg)
      ~wiring
      ~classes:(Anonmem.Wiring.classes_of_inputs inputs)
  in
  (cfg, wiring, inputs, canon)

let gen_cell =
  QCheck.(
    quad (int_bound 1000) (int_bound 2)
      (list_of_size Gen.(0 -- 14) small_int)
      (list_of_size Gen.(0 -- 14) small_int))

let prop_canon_idempotent =
  QCheck.Test.make ~name:"canonicalize is idempotent" ~count:qcheck_count gen_cell
    (fun (wsel, isel, walk, _) ->
      let cfg, wiring, inputs, canon = canon_setup (wsel, isel) in
      let k = reachable_key cfg wiring inputs walk in
      let c = Canon.canonicalize canon k in
      String.equal c (Canon.canonicalize canon c))

let prop_canon_group_invariant =
  QCheck.Test.make
    ~name:"canonicalize constant across the automorphism orbit" ~count:qcheck_count
    gen_cell (fun (wsel, isel, walk, _) ->
      let cfg, wiring, inputs, canon = canon_setup (wsel, isel) in
      let k = reachable_key cfg wiring inputs walk in
      let c = Canon.canonicalize canon k in
      List.for_all
        (fun sym ->
          String.equal c (Canon.canonicalize canon (Canon.apply canon sym k)))
        (Canon.group canon))

let prop_canon_no_unsound_merge =
  (* Two reachable states canonicalize equally iff one is a group image
     of the other — canonicalization never merges across orbits. *)
  QCheck.Test.make ~name:"equal canon keys <=> same orbit" ~count:qcheck_count gen_cell
    (fun (wsel, isel, walk1, walk2) ->
      let cfg, wiring, inputs, canon = canon_setup (wsel, isel) in
      let k1 = reachable_key cfg wiring inputs walk1 in
      let k2 = reachable_key cfg wiring inputs walk2 in
      let same_canon =
        String.equal (Canon.canonicalize canon k1) (Canon.canonicalize canon k2)
      in
      let same_orbit =
        List.exists
          (fun sym -> String.equal (Canon.apply canon sym k1) k2)
          (Canon.group canon)
      in
      same_canon = same_orbit)

let prop_canon_preserves_projections =
  (* Decode-compare: the canonical representative carries the same
     per-input-class multiset of local slices and the same multiset of
     register slices as the original — the invariant-observable
     projections of a symmetric property. *)
  QCheck.Test.make ~name:"canon preserves class-wise slice multisets"
    ~count:qcheck_count gen_cell (fun (wsel, isel, walk, _) ->
      let cfg, wiring, inputs, canon = canon_setup (wsel, isel) in
      let k = reachable_key cfg wiring inputs walk in
      let c = Canon.canonicalize canon k in
      let n = 3 in
      let lw = Modelcheck.Codecs.Snapshot.local_width cfg in
      let vw = Modelcheck.Codecs.Snapshot.value_width cfg in
      let classes = Anonmem.Wiring.classes_of_inputs inputs in
      let locals_of key cls =
        List.init n Fun.id
        |> List.filter (fun p -> classes.(p) = cls)
        |> List.map (fun p -> String.sub key (p * lw) lw)
        |> List.sort String.compare
      in
      let regs_of key =
        List.init n (fun r -> String.sub key ((n * lw) + (r * vw)) vw)
        |> List.sort String.compare
      in
      List.for_all
        (fun cls -> locals_of k cls = locals_of c cls)
        [ 0; 1; 2 ]
      && regs_of k = regs_of c)

(* Exactness: the representative is the [String.compare] minimum of the
   reference images ([Canon.apply]) over the
   group, not merely some orbit element.  Keys embed in checkpoints, so
   this is what keeps them byte-compatible across canonicalizer
   rewrites.  Every n=2 and n=3 wiring with every input choice (one
   class, mixed classes, all distinct) is checked against a reachable
   key and random keys over a 1-4 symbol alphabet, where images tie
   often. *)

let canon_all_setups =
  lazy
    (List.concat_map
       (fun (n, wirings, choices) ->
         let cfg = Snap.standard ~n in
         List.concat_map
           (fun wiring ->
             List.map
               (fun inputs ->
                 let canon =
                   Canon.make
                     ~local_width:(Modelcheck.Codecs.Snapshot.local_width cfg)
                     ~value_width:(Modelcheck.Codecs.Snapshot.value_width cfg)
                     ~wiring
                     ~classes:(Anonmem.Wiring.classes_of_inputs inputs)
                 in
                 (cfg, wiring, inputs, canon))
               choices)
           wirings)
       [
         (2, wirings2, [ [| 1; 1 |]; [| 1; 2 |] ]);
         (3, wirings3, canon_inputs_choices);
       ])

let orbit_min canon k =
  List.fold_left
    (fun best img -> if String.compare img best < 0 then img else best)
    k
    (List.map (fun s -> Canon.apply canon s k) (Canon.group canon))

let gen_exact_cell =
  QCheck.(
    triple (list_of_size Gen.(0 -- 14) small_int) (int_range 1 4) int)

(* The keys one case checks on setup [i]: a reachable key, a key of
   random bytes and a key of random slices (each local and register slice
   drawn from [alpha] candidates, so that images tie slice-wise). *)
let exact_keys (cfg, wiring, inputs, _) i (walk, alpha, seed) =
  let n = Array.length inputs in
  let rs = Random.State.make [| seed; i |] in
  let bytes len =
    String.init len (fun _ -> Char.chr (Random.State.int rs alpha))
  in
  let slices width =
    let pool = Array.init alpha (fun _ -> bytes width) in
    String.concat ""
      (List.init n (fun _ -> pool.(Random.State.int rs alpha)))
  in
  let reached = reachable_key cfg wiring inputs walk in
  [
    reached;
    bytes (String.length reached);
    slices (Modelcheck.Codecs.Snapshot.local_width cfg)
    ^ slices (Modelcheck.Codecs.Snapshot.value_width cfg);
  ]

let prop_canon_exact_minimum =
  QCheck.Test.make ~name:"canonicalize = least reference image"
    ~count:qcheck_count gen_exact_cell (fun cell ->
      List.for_all Fun.id
        (List.mapi
           (fun i ((_, _, _, canon) as setup) ->
             List.for_all
               (fun k ->
                 String.equal (Canon.canonicalize canon k) (orbit_min canon k))
               (exact_keys setup i cell))
           (Lazy.force canon_all_setups)))

let test_canon_allocation () =
  (* The orbit scan allocates nothing: a key that is its own minimum
     comes back physically equal at 0 words, any other key costs exactly
     its one result string (header + padded bytes). *)
  let cfg, wiring, inputs, canon = canon_setup (0, 0) in
  Alcotest.(check int) "group of order 6" 6 (Canon.group_order canon);
  let rs = Random.State.make [| 17 |] in
  let keys =
    List.concat_map
      (fun len ->
        let walk = List.init len (fun _ -> Random.State.int rs 100) in
        let k = reachable_key cfg wiring inputs walk in
        [ k; Canon.canonicalize canon k ])
      (List.init 40 Fun.id)
  in
  let words f k =
    let before = Gc.minor_words () in
    let r = Sys.opaque_identity (f k) in
    let after = Gc.minor_words () in
    (r, int_of_float (after -. before))
  in
  let _, overhead = words Fun.id (List.hd keys) in
  let word_bytes = Sys.word_size / 8 in
  let minimal = ref 0 and moved = ref 0 in
  List.iter
    (fun k ->
      let c, w = words (Canon.canonicalize canon) k in
      let w = w - overhead in
      if String.equal c k then begin
        incr minimal;
        Alcotest.(check int) "own minimum: no allocation" 0 w;
        Alcotest.(check bool) "own minimum: the key itself" true (c == k)
      end
      else begin
        incr moved;
        Alcotest.(check int) "one string of the key's length"
          (1 + ((String.length k + word_bytes) / word_bytes))
          w
      end)
    keys;
  Alcotest.(check bool) "both cases exercised" true (!minimal > 0 && !moved > 0)

(* A key one byte short of the n=3 snapshot body ([n*lw + m*vw], the
   bytes [Canon] permutes) is refused by name, whatever the group. *)
let test_canon_short_key () =
  let cfg = Snap.standard ~n:3 in
  let body =
    3
    * (Modelcheck.Codecs.Snapshot.local_width cfg
      + Modelcheck.Codecs.Snapshot.value_width cfg)
  in
  List.iter
    (fun isel ->
      let _, _, _, canon = canon_setup (0, isel) in
      Alcotest.check_raises
        (Printf.sprintf "|G| = %d" (Canon.group_order canon))
        (Invalid_argument "Canon.canonicalize: key is not the state image")
        (fun () ->
          ignore (Canon.canonicalize canon (String.make (body - 1) 'a'))))
    [ 0; 2 ]

(* A key one byte past the body is refused too, by every entry point
   that reads a key: no engine's key carries bytes past the state
   image, so none is copied along. *)
let test_canon_long_key () =
  let cfg = Snap.standard ~n:3 in
  let body =
    3
    * (Modelcheck.Codecs.Snapshot.local_width cfg
      + Modelcheck.Codecs.Snapshot.value_width cfg)
  in
  let long = String.make (body + 1) '\000' in
  List.iter
    (fun isel ->
      let _, _, inputs, canon = canon_setup (0, isel) in
      let refused who f =
        Alcotest.check_raises
          (Printf.sprintf "%s, |G| = %d" who (Canon.group_order canon))
          (Invalid_argument (who ^ ": key is not the state image"))
          (fun () -> ignore (f ()))
      in
      let layout = SnapE.layout cfg inputs in
      let dst = Bytes.create (Modelcheck.Key_layout.width layout) in
      refused "Canon.canonicalize" (fun () -> Canon.canonicalize canon long);
      refused "Canon.apply" (fun () ->
          Canon.apply canon (List.hd (Canon.group canon)) long);
      refused "Canon.image" (fun () -> Canon.image canon (Bytes.of_string long) 0);
      refused "Canon.pack_least" (fun () ->
          Canon.pack_least canon layout (Bytes.of_string long) dst))
    [ 0; 2 ]

let test_canon_group_sizes () =
  (* Known group orders: identity wiring with one input class has the
     full S_3 (order 6); all-distinct inputs always give the trivial
     group; and the canonicalizer reports triviality accordingly. *)
  let cfg = Snap.standard ~n:3 in
  let mk wiring inputs =
    Canon.make
      ~local_width:(Modelcheck.Codecs.Snapshot.local_width cfg)
      ~value_width:(Modelcheck.Codecs.Snapshot.value_width cfg)
      ~wiring
      ~classes:(Anonmem.Wiring.classes_of_inputs inputs)
  in
  let idw = Anonmem.Wiring.identity ~n:3 ~m:3 in
  Alcotest.(check int) "identity wiring, one class: |G| = 6" 6
    (Canon.group_order (mk idw [| 1; 1; 1 |]));
  Alcotest.(check int) "distinct inputs: trivial group" 1
    (Canon.group_order (mk idw [| 1; 2; 3 |]));
  Alcotest.(check bool) "trivial is reported trivial" true
    (Canon.is_trivial (mk idw [| 1; 2; 3 |]))

(* ------------------------------------------------------------------ *)
(* Structured rejection of over-wide configurations.                  *)
(* ------------------------------------------------------------------ *)

let test_processor_limits_structured () =
  (* >= 16 processors would corrupt the 4-bit pid packing: a structured
     error, not silent corruption. *)
  let module WsE = WsDiff.E in
  let module WsPar = WsDiff.Par in
  let cfg16 = Algorithms.Write_scan.cfg ~n:16 ~m:2 in
  let wiring16 = Anonmem.Wiring.identity ~n:16 ~m:2 in
  let inputs16 = Array.make 16 1 in
  let expect_unsupported name f =
    match f () with
    | exception Modelcheck.Explorer.Unsupported_processors { processors; limit; _ }
      ->
        Alcotest.(check bool)
          (name ^ ": limit below processor count")
          true (processors > limit)
    | _ -> Alcotest.failf "%s: expected Unsupported_processors" name
  in
  expect_unsupported "explore" (fun () ->
      WsE.explore ~cfg:cfg16 ~wiring:wiring16 ~inputs:inputs16 ());
  expect_unsupported "check_exhaustive" (fun () ->
      WsE.check_exhaustive ~cfg:cfg16 ~wiring:wiring16 ~inputs:inputs16 ());
  expect_unsupported "par explore" (fun () ->
      WsPar.explore ~domains:2 ~cfg:cfg16 ~wiring:wiring16 ~inputs:inputs16 ());
  (* The registered printer renders the payload, not <exn>. *)
  let printed =
    Printexc.to_string
      (Modelcheck.Explorer.Unsupported_processors
         { engine = "Explorer.explore"; processors = 16; limit = 15 })
  in
  Alcotest.(check bool) "printer names the engine" true
    (String.length printed > 0
    && String.sub printed 0 16 = "Explorer.explore")

let () =
  Alcotest.run "par_explorer"
    [
      ( "differential",
        [
          Alcotest.test_case "snapshot n=2, all wirings x inputs" `Quick
            test_snapshot_n2_matrix;
          Alcotest.test_case "snapshot n=3, level-bounded" `Quick
            test_snapshot_n3_bounded;
          Alcotest.test_case "snapshot n=3, full matrix (MC_LONG)" `Slow
            test_snapshot_n3_full_matrix_long;
          Alcotest.test_case "snapshot n=3, unbounded 2x reduction (MC_LONG)"
            `Slow test_snapshot_n3_unbounded_reduction_long;
          Alcotest.test_case "snapshot n=3, packed = wide on 1.7M (MC_LONG)" `Slow
            test_snapshot_n3_packed_long;
          Alcotest.test_case "write-scan divergence parity" `Quick
            test_write_scan_divergence_parity;
          Alcotest.test_case "double-collect" `Quick test_double_collect_matrix;
          Alcotest.test_case "consensus, ts-bounded" `Quick
            test_consensus_bounded_matrix;
          Alcotest.test_case "renaming" `Quick test_renaming_matrix;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "planted snapshot bug, all engines" `Quick
            test_planted_snapshot_counterexample;
          Alcotest.test_case "planted snapshot bug, reduced" `Quick
            test_planted_snapshot_counterexample_reduced;
          Alcotest.test_case "planted double-collect bug" `Quick
            test_planted_double_collect_counterexample;
          Alcotest.test_case "trace ids from the arena table replay" `Quick
            test_planted_trace_ids_from_arena_table;
          (* Figure 3's moves on the generic DFS; the name predates the
             retired packed checker's removal and keeps the test id. *)
          Alcotest.test_case "snapshot3 ND search" `Quick
            test_fig3_nd_planted_search;
        ] );
      ( "work-stealing",
        [
          QCheck_alcotest.to_alcotest prop_deque_sequential_model;
          Alcotest.test_case "deque steal stress, 4 domains" `Quick
            test_ws_deque_steal_stress;
          Alcotest.test_case "single-state space terminates" `Quick
            test_ws_single_state_space;
          Alcotest.test_case "state limit mid-steal" `Quick
            test_ws_state_limit_mid_steal;
          Alcotest.test_case "violation mid-steal" `Quick
            test_ws_violation_mid_steal;
        ] );
      ( "canon",
        [
          QCheck_alcotest.to_alcotest prop_canon_idempotent;
          QCheck_alcotest.to_alcotest prop_canon_group_invariant;
          QCheck_alcotest.to_alcotest prop_canon_no_unsound_merge;
          QCheck_alcotest.to_alcotest prop_canon_preserves_projections;
          Alcotest.test_case "known group orders" `Quick test_canon_group_sizes;
          QCheck_alcotest.to_alcotest prop_canon_exact_minimum;
          Alcotest.test_case "allocates only the winner" `Quick
            test_canon_allocation;
          Alcotest.test_case "short key refused" `Quick test_canon_short_key;
          Alcotest.test_case "long key refused" `Quick test_canon_long_key;
        ] );
      ( "limits",
        [
          Alcotest.test_case "structured processor-count rejection" `Quick
            test_processor_limits_structured;
          Alcotest.test_case "state bound agrees across engines" `Quick
            test_state_limit_boundary;
        ] );
    ]
