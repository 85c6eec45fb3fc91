(* Tests of the model checker itself: codec roundtrips, exploration on
   small/known systems, wait-freedom detection (positive and negative), and
   the n=2 instance of the paper's TLC claim. *)

open Repro_util
module Snap = Algorithms.Snapshot
module SC = Algorithms.Snapshot.Core
module SnapC = Modelcheck.Codecs.Snapshot
module WsC = Modelcheck.Codecs.Write_scan
module DcC = Modelcheck.Codecs.Double_collect
module MC = Modelcheck.Explorer.Make (SnapC)
module MCW = Modelcheck.Explorer.Make (WsC)
module MCD = Modelcheck.Explorer.Make (DcC)

(* --- codec roundtrips ----------------------------------------------------- *)

let roundtrip_local (type l) name cfg encode decode width (locals : l list) =
  List.iter
    (fun l ->
      let b = Bytes.make (width cfg) '\000' in
      encode cfg l b 0;
      if decode cfg b 0 <> l then Alcotest.fail (name ^ ": local roundtrip failed"))
    locals

let test_snapshot_codec_roundtrip () =
  let cfg = Snap.standard ~n:3 in
  (* drive a processor through a few steps to collect diverse locals *)
  let module Sys = Anonmem.System.Make (Snap) in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:3) ~n:3 ~m:3 in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2; 3 |] in
  let seen = ref [] in
  let _ =
    Sys.run ~max_steps:500
      ~sched:(Anonmem.Scheduler.random (Rng.create ~seed:4))
      ~on_event:(fun ~time:_ _ ->
        Array.iter (fun l -> seen := l :: !seen) st.Sys.locals)
      st
  in
  roundtrip_local "snapshot" cfg SnapC.encode_local SnapC.decode_local
    SnapC.local_width !seen;
  (* values *)
  let vals =
    [
      { Snap.view = Iset.empty; level = 0 };
      { Snap.view = Iset.of_list [ 1; 3 ]; level = 2 };
      { Snap.view = Iset.of_list [ 0; 7 ]; level = 5 };
    ]
  in
  List.iter
    (fun v ->
      let b = Bytes.make (SnapC.value_width cfg) '\000' in
      SnapC.encode_value cfg v b 0;
      if SnapC.decode_value cfg b 0 <> v then Alcotest.fail "value roundtrip")
    vals

let test_codec_rejects_out_of_range () =
  let cfg = Snap.standard ~n:3 in
  let v = { Snap.view = Iset.of_list [ 9 ]; level = 0 } in
  Alcotest.check_raises "element 9 needs bit 9"
    (Invalid_argument "Codecs: field out of byte range") (fun () ->
      let b = Bytes.make 2 '\000' in
      SnapC.encode_value cfg v b 0)

(* --- exploration on a 1-processor system ---------------------------------- *)

let test_explore_solo_snapshot () =
  (* One processor, one register: write (view,lvl); scan; level climbs 1
     per round up to n=1 -> terminates after the first clean scan. *)
  let cfg = Snap.cfg ~n:1 ~m:1 in
  let wiring = Anonmem.Wiring.identity ~n:1 ~m:1 in
  match MC.explore ~cfg ~wiring ~inputs:[| 1 |] () with
  | MC.Explored space ->
      Alcotest.(check bool) "few states" true (MC.state_count space <= 6);
      Alcotest.(check int) "one terminal" 1 (List.length space.MC.terminal);
      Alcotest.(check (list int)) "wait-free" [] (MC.divergent_processors space)
  | _ -> Alcotest.fail "expected successful exploration"

let test_explore_finds_invariant_violation () =
  (* A deliberately false invariant must fail on the initial state with an
     empty trace. *)
  let cfg = Snap.cfg ~n:1 ~m:1 in
  let wiring = Anonmem.Wiring.identity ~n:1 ~m:1 in
  match
    MC.explore ~invariant:(fun _ -> Error "nope") ~cfg ~wiring ~inputs:[| 1 |] ()
  with
  | MC.Invariant_failed (_, v) ->
      Alcotest.(check string) "message" "nope" v.MC.message;
      Alcotest.(check int) "violation at initial state" 0 (List.length v.MC.trace)
  | _ -> Alcotest.fail "expected invariant failure"

(* Under reduction the BFS checks the invariant on the canonical state,
   decoded from the id's packed key; the root's key is interned before any
   successor is built, so its check must read that key and no scratch
   buffer.  An invariant that fails only at the root must report id 0,
   and one that holds only there must report some other id. *)
let test_reduced_root_invariant () =
  let cfg = Snap.standard ~n:2 and inputs = [| 1; 1 |] in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let root = MC.encode_state cfg (MC.init_state ~cfg ~inputs) in
  let at_root st = MC.encode_state cfg st = root in
  let run ~fails_at_root =
    MC.explore ~reduction:true ~cfg ~wiring ~inputs
      ~invariant:(fun st ->
        if at_root st = fails_at_root then Error "planted" else Ok ())
      ()
  in
  (match run ~fails_at_root:true with
  | MC.Invariant_failed (_, v) ->
      Alcotest.(check int) "root violation is id 0" 0 v.MC.state_id
  | _ -> Alcotest.fail "a violation at the root was missed");
  match run ~fails_at_root:false with
  | MC.Invariant_failed (_, v) ->
      Alcotest.(check bool) "violation past the root" true (v.MC.state_id > 0)
  | _ -> Alcotest.fail "a violation past the root was missed"

(* The governor is the one way to stop an exploration early: a quota of
   10 ticks stops the BFS after 10 popped states, with a partial count. *)
let test_explore_state_limit () =
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let governor = Modelcheck.Governor.create ~quota:10 () in
  match MC.explore ~governor ~cfg ~wiring ~inputs:[| 1; 2 |] () with
  | MC.Exhausted { reason = Modelcheck.Governor.Quota; states } ->
      Alcotest.(check bool) "stopped past the quota" true (states >= 10)
  | _ -> Alcotest.fail "expected a quota trip"

let test_trace_reconstruction () =
  let cfg = Snap.cfg ~n:1 ~m:1 in
  let wiring = Anonmem.Wiring.identity ~n:1 ~m:1 in
  (* fail when the processor has terminated: trace = the whole execution *)
  let invariant (st : MC.state) =
    if Snap.output cfg st.MC.locals.(0) <> None then Error "terminated"
    else Ok ()
  in
  match MC.explore ~invariant ~cfg ~wiring ~inputs:[| 1 |] () with
  | MC.Invariant_failed (_, v) ->
      Alcotest.(check bool) "non-empty trace" true (List.length v.MC.trace > 0);
      (* every step in the trace is by processor 0 *)
      List.iter (fun (p, _) -> Alcotest.(check int) "pid" 0 p) v.MC.trace
  | _ -> Alcotest.fail "expected invariant failure at termination"

(* --- wait-freedom / divergence ------------------------------------------- *)

let test_write_scan_diverges () =
  (* The write-scan loop never terminates: the DFS must find a cycle. *)
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  match MCW.check_exhaustive ~cfg ~wiring ~inputs:[| 1; 2 |] () with
  | MCW.Dfs_cycle { processors; _ } ->
      Alcotest.(check bool) "some processor diverges" true (processors <> [])
  | _ -> Alcotest.fail "expected a divergence cycle"

let test_write_scan_bfs_divergence_agrees () =
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  match MCW.explore ~cfg ~wiring ~inputs:[| 1; 2 |] () with
  | MCW.Explored space ->
      Alcotest.(check (list int)) "BFS SCC: both processors diverge" [ 0; 1 ]
        (MCW.divergent_processors space)
  | _ -> Alcotest.fail "expected exploration"

let test_snapshot_n1_acyclic () =
  let cfg = Snap.cfg ~n:1 ~m:1 in
  let wiring = Anonmem.Wiring.identity ~n:1 ~m:1 in
  match MC.check_exhaustive ~cfg ~wiring ~inputs:[| 1 |] () with
  | MC.Dfs_ok s ->
      Alcotest.(check bool) "some transitions" true (s.MC.dfs_transitions > 0);
      Alcotest.(check int) "one terminal" 1 s.MC.dfs_terminals
  | _ -> Alcotest.fail "expected acyclic result"

(* --- the n=2 TLC claim ----------------------------------------------------- *)

let test_verify_snapshot_n2_all_wirings () =
  match Core.verify_snapshot_model ~n:2 () with
  | Ok s ->
      Alcotest.(check int) "2 wirings" 2 s.Modelcheck.Explorer.wirings_checked;
      Alcotest.(check bool) "wait-free everywhere" true
        s.Modelcheck.Explorer.all_wait_free;
      Alcotest.(check bool) "nontrivial spaces" true
        (s.Modelcheck.Explorer.total_states > 100)
  | Error e -> Alcotest.fail e

let test_verify_snapshot_n2_groups () =
  match Core.verify_snapshot_model ~n:2 ~inputs:(Some [| 1; 1 |]) () with
  | Ok s ->
      Alcotest.(check bool) "single group verified" true
        s.Modelcheck.Explorer.all_wait_free
  | Error e -> Alcotest.fail e

let test_bfs_and_dfs_agree_on_counts () =
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  match (MC.explore ~cfg ~wiring ~inputs (), MC.check_exhaustive ~cfg ~wiring ~inputs ()) with
  | MC.Explored space, MC.Dfs_ok s ->
      Alcotest.(check int) "same state count" (MC.state_count space) s.MC.dfs_states;
      Alcotest.(check int) "same transition count" (MC.transition_count space)
        s.MC.dfs_transitions;
      Alcotest.(check int) "same terminal count"
        (List.length space.MC.terminal)
        s.MC.dfs_terminals
  | _ -> Alcotest.fail "expected both to succeed"

(* Terminal outcomes of the n=2 exploration all satisfy the snapshot task. *)
let test_terminal_outcomes_valid () =
  let cfg = Snap.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  List.iter
    (fun wiring ->
      match MC.explore ~cfg ~wiring ~inputs () with
      | MC.Explored space ->
          let outcomes =
            MC.terminal_outcomes space ~group_of_input:Fun.id ~to_task_output:Fun.id
          in
          Alcotest.(check bool) "has terminal states" true (outcomes <> []);
          List.iter
            (fun o ->
              match Tasks.Snapshot_task.check_strong o with
              | Ok () -> ()
              | Error e -> Alcotest.fail (Tasks.Task_failure.to_string e))
            outcomes
      | _ -> Alcotest.fail "exploration failed")
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

(* --- double-collect: exhaustively hunting for its unsoundness ------------- *)

let test_double_collect_explored () =
  (* For n=2 the broken double-collect baseline: explore and validate that
     exploration machinery handles it; record whether its terminal outcomes
     are task-valid (they are at n=2; the Figure-2 attack needs the churn of
     more processors). *)
  let cfg = Algorithms.Double_collect.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  List.iter
    (fun wiring ->
      match MCD.explore ~cfg ~wiring ~inputs () with
      | MCD.Explored space ->
          Alcotest.(check bool) "explored" true (MCD.state_count space > 0)
      | MCD.Invariant_failed _ -> Alcotest.fail "no invariant given"
      | MCD.Exhausted _ -> Alcotest.fail "unexpected exhaustion")
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

(* --- moves: Figure 3's write choice on the generic engines -------------- *)

let any_cfg = { (Snap.standard ~n:3) with Snap.write_order = Any }

let test_fig3_nd_choices () =
  (* Initially every processor is writing with an empty written-set: 3
     choices each under Any, the lowest register only under Cyclic;
     choice c is the c-th unwritten register. *)
  let l = SnapC.init any_cfg 1 in
  Alcotest.(check int) "3 write choices" 3 (SnapC.choices any_cfg l);
  Alcotest.(check int) "1 cyclic choice" 1
    (SnapC.choices (Snap.standard ~n:3) l);
  Alcotest.(check int) "9 moves at n = 3" 9 (MC.move_count any_cfg);
  let at written c = SnapC.write_choice any_cfg { l with SC.written } c in
  Alcotest.(check int) "first unwritten" 0 (at 0b000 0);
  Alcotest.(check int) "skip written" 1 (at 0b001 0);
  Alcotest.(check int) "second choice" 2 (at 0b001 1);
  Alcotest.(check int) "only r1 free" 1 (at 0b101 0);
  let l' = SnapC.apply_write_to any_cfg { l with SC.written = 0b101 } ~reg:1 in
  Alcotest.(check int) "a full round empties the set" 0 l'.SC.written;
  Alcotest.check_raises "the simulator refuses Any"
    (Invalid_argument
       "Snapshot.init: the nondeterministic write order runs on the model \
        checker only") (fun () -> ignore (Snap.init any_cfg 1))

let pin_wiring = Anonmem.Wiring.of_lists [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 2; 0 ] ]

let test_fig3_cyclic_count_pin () =
  (* The generic engine's counts on the pin wiring: every reachable
     written-set is a cyclic prefix.  (A terminated processor keeps its
     dead written-set, which is why the retired packed checker, which
     pinned it to 000, read 1,606,198 states and 4,753,080 transitions
     here.) *)
  let cfg = Snap.standard ~n:3 in
  let invariant (st : MC.state) =
    if Array.for_all SC.is_cyclic st.MC.locals then Ok ()
    else Error "off-cursor written-set"
  in
  match
    MC.check_exhaustive ~invariant ~log2_slots:20 ~cfg ~wiring:pin_wiring
      ~inputs:[| 1; 1; 1 |] ()
  with
  | MC.Dfs_ok s ->
      Alcotest.(check int) "generic states" 1_721_671 s.MC.dfs_states;
      Alcotest.(check int) "generic transitions" 4_979_918 s.MC.dfs_transitions;
      Alcotest.(check int) "generic terminals" 27 s.MC.dfs_terminals
  | _ -> Alcotest.fail "generic cyclic pin wiring not verified"

let rotation = Anonmem.Wiring.of_lists [ [ 0; 1; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ] ]

let test_fig3_cyclic_path_replays () =
  (* A planted target (some processor returns {1,2}): the generic BFS's
     minimal trace takes choice 0 throughout, so its moves are pids, and
     replaying them through [successor] lands on every traced state. *)
  let cfg = Snap.standard ~n:3 and inputs = [| 1; 2; 3 |] in
  let target = Iset.of_list [ 1; 2 ] in
  let invariant (st : MC.state) =
    if Array.exists (fun l -> Snap.output cfg l = Some target) st.MC.locals
    then Error "returns {1,2}"
    else Ok ()
  in
  match MC.explore ~invariant ~cfg ~wiring:rotation ~inputs () with
  | MC.Invariant_failed (_, v) ->
      let final =
        List.fold_left
          (fun st (mv, (post : MC.state)) ->
            Alcotest.(check bool) "cyclic moves are pids" true (mv < 3);
            let st = MC.successor cfg rotation st mv in
            Alcotest.(check string) "replayed state is the traced one"
              (MC.encode_state cfg post) (MC.encode_state cfg st);
            st)
          (MC.init_state ~cfg ~inputs) v.MC.trace
      in
      Alcotest.(check bool) "the replay returns {1,2}" true
        (Result.is_error (invariant final))
  | _ -> Alcotest.fail "planted cyclic witness not found"

let test_fig3_any_path_replays () =
  (* A target only the nondeterministic order reaches: a written-set the
     cyclic order never holds.  The DFS finds it; the exact BFS's
     minimal trace takes some choice > 0 and replays through
     [successor]. *)
  let inputs = [| 1; 2; 3 |] in
  let invariant (st : MC.state) =
    if Array.for_all SC.is_cyclic st.MC.locals then Ok ()
    else Error "off-cursor written-set"
  in
  (match
     MC.check_exhaustive ~invariant ~cfg:any_cfg ~wiring:rotation ~inputs ()
   with
  | MC.Dfs_invariant_failed _ -> ()
  | _ -> Alcotest.fail "the DFS missed the off-cursor target");
  match MC.explore ~invariant ~cfg:any_cfg ~wiring:rotation ~inputs () with
  | MC.Invariant_failed (_, v) ->
      Alcotest.(check bool) "some write picks past the lowest register" true
        (List.exists (fun (mv, _) -> mv >= 3) v.MC.trace);
      let final =
        List.fold_left
          (fun st (mv, (post : MC.state)) ->
            let st = MC.successor any_cfg rotation st mv in
            Alcotest.(check string) "replayed state is the traced one"
              (MC.encode_state any_cfg post) (MC.encode_state any_cfg st);
            st)
          (MC.init_state ~cfg:any_cfg ~inputs)
          v.MC.trace
      in
      Alcotest.(check bool) "the replay ends off-cursor" true
        (Result.is_error (invariant final));
      (* a first write past the lowest register is already off the
         cursor: the minimal witness is that one move *)
      Alcotest.(check (list int)) "minimal witness" [ 3 ] (List.map fst v.MC.trace)
  | _ -> Alcotest.fail "planted nondeterministic witness not found"

let test_fig3_nd_search_smoke () =
  (* With a single group, every view is {1}: the first write puts {1} in
     memory and the whole subtree is cut, so the search refutes the
     target immediately on every wiring. *)
  match
    Core.search_nonatomic ~write_order:Any
      ~wirings:[ Anonmem.Wiring.identity ~n:3 ~m:3; rotation ]
      ([| 1; 1; 1 |], Iset.of_list [ 1 ])
  with
  | Core.Refuted _ -> ()
  | _ -> Alcotest.fail "single group not refuted"

let test_choices_refused () =
  (* The engines that number steps by processor refuse a configuration
     with write choices. *)
  let inputs = [| 1; 2; 3 |] and wiring = rotation in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s ran under write choices" what
  in
  refused "parallel BFS" (fun () ->
      ignore
        (Core.Snapshot_par_mc.explore ~domains:2 ~cfg:any_cfg ~wiring ~inputs ()));
  refused "work-stealing BFS" (fun () ->
      ignore
        (Core.Snapshot_ws_mc.explore ~domains:2 ~cfg:any_cfg ~wiring ~inputs ()));
  let module R = Modelcheck.Witness.Replay (SnapC) in
  refused "replay" (fun () -> ignore (R.run ~cfg:any_cfg ~wiring ~inputs [ 0 ]));
  refused "simulator" (fun () ->
      let module Sys = Anonmem.System.Make (Snap) in
      ignore (Sys.init ~cfg:any_cfg ~wiring ~inputs))

(* --- consensus codec -------------------------------------------------------- *)

let test_consensus_codec_roundtrip () =
  let module Cc = Modelcheck.Codecs.Consensus in
  let module CSys = Anonmem.System.Make (Algorithms.Consensus) in
  let cfg = Algorithms.Consensus.standard ~n:2 in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:6) ~n:2 ~m:2 in
  let st = CSys.init ~cfg ~wiring ~inputs:[| 1; 2 |] in
  let checked = ref 0 in
  let _ =
    CSys.run ~max_steps:400
      ~sched:(Anonmem.Scheduler.random (Rng.create ~seed:7))
      ~on_event:(fun ~time:_ _ ->
        Array.iter
          (fun (l : Algorithms.Consensus.local) ->
            let b = Bytes.make (Cc.local_width cfg) '\000' in
            Cc.encode_local cfg l b 0;
            let l' = Cc.decode_local cfg b 0 in
            (* [input] and [rounds] are deliberately quotiented away *)
            let scrub (x : Algorithms.Consensus.local) =
              { x with Algorithms.Consensus.input = 0; rounds = 0 }
            in
            if scrub l' <> scrub l then Alcotest.fail "consensus local roundtrip";
            incr checked)
          st.CSys.locals)
      st
  in
  Alcotest.(check bool) "checked many locals" true (!checked > 100)

let test_consensus_codec_bounds () =
  let module Cc = Modelcheck.Codecs.Consensus in
  Alcotest.check_raises "timestamp too large"
    (Invalid_argument "Codecs.Consensus: (value, timestamp) out of bounds")
    (fun () -> ignore (Cc.pair_index (1, 99)))

(* --- codec round-trip properties (QCheck) ---------------------------------- *)

(* [decode (encode x) = x] over random reachable-shaped states for all
   five protocol codecs.  The generators draw every field from the range
   the codec documents (views as byte bitmasks, scan positions below the
   register count, consensus pairs within the pair-index bounds), so a
   failure is a genuine codec bug, not an out-of-contract input.  The
   driven-execution roundtrips above stay: they cover correlations the
   independent field generators cannot (QCheck covers the full field
   product, the executions cover realism). *)

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> int_of_string s
  | None -> 300

let gen_iset = QCheck.Gen.(map Iset.of_bits (int_bound 255))

let gen_snap_phase =
  QCheck.Gen.(
    oneof
      [
        return SC.Writing;
        map3
          (fun pos all_own min_level ->
            SC.Scanning { SC.pos; all_own; min_level })
          (int_bound 7) bool (int_bound 7);
      ])

let gen_snap_local =
  QCheck.Gen.(
    map3
      (fun view level (written, phase) ->
        { SC.view; level; written; phase })
      gen_iset (int_bound 7)
      (pair (int_bound 7) gen_snap_phase))

let codec_roundtrip (type l) name ~(width : int) ~(gen : l QCheck.Gen.t)
    ~(encode : l -> Bytes.t -> int -> unit) ~(decode : Bytes.t -> int -> l)
    ?(eq : l -> l -> bool = ( = )) () =
  QCheck.Test.make
    ~name:(name ^ ": decode (encode x) = x")
    ~count:qcheck_count (QCheck.make gen) (fun x ->
      let b = Bytes.make width '\000' in
      encode x b 0;
      eq (decode b 0) x)

let prop_snapshot_local =
  let cfg = Snap.standard ~n:3 in
  codec_roundtrip "snapshot local" ~width:(SnapC.local_width cfg)
    ~gen:gen_snap_local
    ~encode:(SnapC.encode_local cfg)
    ~decode:(SnapC.decode_local cfg)
    ()

let prop_snapshot_value =
  let cfg = Snap.standard ~n:3 in
  codec_roundtrip "snapshot value" ~width:(SnapC.value_width cfg)
    ~gen:
      QCheck.Gen.(
        map2 (fun view level -> { Snap.view; level }) gen_iset (int_bound 7))
    ~encode:(SnapC.encode_value cfg)
    ~decode:(SnapC.decode_value cfg)
    ()

let prop_write_scan_local =
  let module W = Algorithms.Write_scan in
  let cfg = W.cfg ~n:3 ~m:3 in
  codec_roundtrip "write-scan local" ~width:(WsC.local_width cfg)
    ~gen:
      QCheck.Gen.(
        map3
          (fun view next_write phase -> { W.view; next_write; phase })
          gen_iset (int_bound 7)
          (oneof
             [
               return W.Writing;
               map (fun pos -> W.Scanning { W.pos }) (int_bound 7);
             ]))
    ~encode:(WsC.encode_local cfg)
    ~decode:(WsC.decode_local cfg)
    ()

let prop_double_collect_local =
  let module D = Algorithms.Double_collect in
  let cfg = D.standard ~n:3 in
  codec_roundtrip "double-collect local" ~width:(DcC.local_width cfg)
    ~gen:
      QCheck.Gen.(
        map3
          (fun view (next_write, streak) phase ->
            { D.view; next_write; streak; phase })
          gen_iset
          (pair (int_bound 7) (int_bound 7))
          (oneof
             [
               return D.Writing;
               map2
                 (fun pos all_own -> D.Scanning { D.pos; all_own })
                 (int_bound 7) bool;
             ]))
    ~encode:(DcC.encode_local cfg)
    ~decode:(DcC.decode_local cfg)
    ()

module Cc = Modelcheck.Codecs.Consensus
module Cons = Algorithms.Consensus

(* Pair sets as random 24-bit masks: exactly the codec's own value space
   ((value, timestamp) with value in 1..3, timestamp in 0..7). *)
let gen_pset = QCheck.Gen.(map Cc.pset_of_bits (int_bound ((1 lsl 24) - 1)))

let gen_consensus_snap_local =
  QCheck.Gen.(
    map3
      (fun view level (written, phase) ->
        { Cons.Snap.Core.view; level; written; phase })
      gen_pset (int_bound 7)
      (pair (int_bound 7)
         (oneof
            [
              return Cons.Snap.Core.Writing;
              map3
                (fun pos all_own min_level ->
                  Cons.Snap.Core.Scanning
                    { Cons.Snap.Core.pos; all_own; min_level })
                (int_bound 7) bool (int_bound 7);
            ])))

let prop_consensus_local =
  let cfg = Cons.standard ~n:3 in
  (* [input] decodes as [pref] and [rounds] as 0 by design (the ghost
     fields are quotiented away), so generate states already in that
     normal form — on those the codec must be an exact inverse. *)
  let gen =
    QCheck.Gen.(
      map3
        (fun (pref, ts) decided snap ->
          { Cons.input = pref; pref; ts; decided; rounds = 0; snap })
        (pair (1 -- 3) (int_bound 7))
        (oneof [ return None; map (fun v -> Some v) (1 -- 3) ])
        gen_consensus_snap_local)
  in
  codec_roundtrip "consensus local" ~width:(Cc.local_width cfg) ~gen
    ~encode:(Cc.encode_local cfg)
    ~decode:(Cc.decode_local cfg)
    ()

let prop_consensus_value =
  let cfg = Cons.standard ~n:3 in
  codec_roundtrip "consensus value" ~width:(Cc.value_width cfg)
    ~gen:
      QCheck.Gen.(
        map2
          (fun view level -> { Cons.Snap.Core.view; level })
          gen_pset (int_bound 7))
    ~encode:(Cc.encode_value cfg)
    ~decode:(Cc.decode_value cfg)
    ()

module RenC = Modelcheck.Codecs.Renaming
module Ren = Algorithms.Renaming

let prop_renaming_local =
  let cfg = Ren.standard ~n:3 in
  codec_roundtrip "renaming local" ~width:(RenC.local_width cfg)
    ~gen:
      QCheck.Gen.(
        map2 (fun group core -> { Ren.group; core }) (int_bound 7)
          gen_snap_local)
    ~encode:(RenC.encode_local cfg)
    ~decode:(RenC.decode_local cfg)
    ()

(* Out-of-range fields must raise the structured byte-range error and
   leave every byte outside the encoding slot untouched: the buffer is a
   shared state arena in the explorers, so a partial encode must never
   bleed into a neighbouring processor's slice. *)
let check_out_of_range name width encode =
  let b = Bytes.make (width + 2) '\xAB' in
  (match encode b 1 with
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        (name ^ ": structured error")
        "Codecs: field out of byte range" msg
  | exception e ->
      Alcotest.failf "%s: expected byte-range error, got %s" name
        (Printexc.to_string e)
  | () -> Alcotest.failf "%s: out-of-range field encoded" name);
  Alcotest.(check char) (name ^ ": left neighbour intact") '\xAB' (Bytes.get b 0);
  Alcotest.(check char)
    (name ^ ": right neighbour intact")
    '\xAB'
    (Bytes.get b (width + 1))

let test_codecs_out_of_range_structured () =
  let scfg = Snap.standard ~n:3 in
  check_out_of_range "snapshot level=300" (SnapC.local_width scfg) (fun b off ->
      SnapC.encode_local scfg
        { SC.view = Iset.empty; level = 300; written = 0; phase = SC.Writing }
        b off);
  let wcfg = Algorithms.Write_scan.cfg ~n:3 ~m:3 in
  check_out_of_range "write-scan next_write=256" (WsC.local_width wcfg)
    (fun b off ->
      WsC.encode_local wcfg
        {
          Algorithms.Write_scan.view = Iset.empty;
          next_write = 256;
          phase = Algorithms.Write_scan.Writing;
        }
        b off);
  let dcfg = Algorithms.Double_collect.standard ~n:3 in
  check_out_of_range "double-collect streak=-1" (DcC.local_width dcfg)
    (fun b off ->
      DcC.encode_local dcfg
        {
          Algorithms.Double_collect.view = Iset.empty;
          next_write = 0;
          streak = -1;
          phase = Algorithms.Double_collect.Writing;
        }
        b off);
  let ccfg = Cons.standard ~n:3 in
  check_out_of_range "consensus ts=999" (Cc.local_width ccfg) (fun b off ->
      Cc.encode_local ccfg
        {
          Cons.input = 1;
          pref = 1;
          ts = 999;
          decided = None;
          rounds = 0;
          snap = Cons.Snap.init ccfg (1, 0);
        }
        b off);
  let rcfg = Ren.standard ~n:3 in
  check_out_of_range "renaming group=300" (RenC.local_width rcfg) (fun b off ->
      RenC.encode_local rcfg
        {
          Ren.group = 300;
          core =
            { SC.view = Iset.empty; level = 0; written = 0; phase = SC.Writing };
        }
        b off)

(* --- the successor-key path ------------------------------------------------ *)

(* [successor_key] patches the parent's key instead of re-encoding the
   successor; it must agree with [successor] + [encode_state] on every step
   of every codec.  So must [successor_into], which patches into a scratch
   buffer (here one that starts each step full of garbage), and
   [successor_by], which takes the action [P.next] already returned.  The
   walk is a plain BFS over full encodings (capped at [limit] states), so
   it shares nothing with the engines under test. *)
module Key_path (P : Modelcheck.Explorer.CHECKABLE) = struct
  module E = Modelcheck.Explorer.Make (P)

  let check ?stop_expansion ?(limit = 20_000) name ~cfg ~wiring ~inputs =
    let canon = E.canon_of ~cfg ~wiring ~inputs in
    let seen = Hashtbl.create 1024 in
    let queue = Queue.create () in
    let visit st =
      let key = E.encode_state cfg st in
      if Hashtbl.length seen < limit && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Queue.add (st, key) queue
      end
    in
    let roundtrip what key =
      if not (String.equal (E.encode_state cfg (E.decode_state cfg key)) key)
      then Alcotest.failf "%s: %s key does not survive decode/encode" name what
    in
    let steps = ref 0 in
    let buf = Bytes.create (E.key_width cfg) in
    visit (E.init_state ~cfg ~inputs);
    while not (Queue.is_empty queue) do
      let st, key = Queue.pop queue in
      roundtrip "raw" key;
      roundtrip "canonical" (Modelcheck.Canon.canonicalize canon key);
      let expand =
        match stop_expansion with Some f -> not (f st) | None -> true
      in
      if expand then
        List.iter
          (fun p ->
            incr steps;
            let st' = E.successor cfg wiring st p in
            let st'', key' = E.successor_key cfg wiring st key p in
            if st'' <> st' then
              Alcotest.failf "%s: successor_key's state differs (p%d)" name p;
            if not (String.equal key' (E.encode_state cfg st')) then
              Alcotest.failf "%s: patched key differs from a full encode (p%d)"
                name p;
            let action = Option.get (P.next cfg st.E.locals.(p)) in
            if E.successor_by cfg wiring st p action <> st' then
              Alcotest.failf "%s: successor_by differs from successor (p%d)"
                name p;
            Bytes.fill buf 0 (Bytes.length buf) (Char.chr (!steps land 0xff));
            (* the parent key read at an offset inside a larger page *)
            let src = Bytes.of_string ("pad" ^ key) in
            let st_into = E.successor_into cfg wiring st src 3 p action buf in
            if st_into <> st' then
              Alcotest.failf "%s: successor_into's state differs (p%d)" name p;
            if not (String.equal (Bytes.to_string buf) (E.encode_state cfg st'))
            then
              Alcotest.failf
                "%s: successor_into's buffer differs from a full encode (p%d)"
                name p;
            visit st')
          (E.enabled cfg st)
    done;
    Alcotest.(check bool) (name ^ ": steps taken") true (!steps > 0)
end

module Kp_snap = Key_path (SnapC)
module Kp_ws = Key_path (WsC)
module Kp_dc = Key_path (DcC)
module Kp_cons = Key_path (Modelcheck.Codecs.Consensus)
module Kp_ren = Key_path (Modelcheck.Codecs.Renaming)
module Kp_mutex = Key_path (Modelcheck.Codecs.Rt_mutex)
module Kp_leader = Key_path (Modelcheck.Codecs.Weak_leader)
module Kp_naming = Key_path (Modelcheck.Codecs.Naming)

(* A wiring other than the identity, so register relabelling is on the
   path being checked. *)
let last_wiring ~n ~m =
  let ws = Anonmem.Wiring.enumerate ~n ~m ~fix_first:true in
  List.nth ws (List.length ws - 1)

let test_successor_key_all_codecs () =
  let w2 = last_wiring ~n:2 ~m:2 and w3 = last_wiring ~n:2 ~m:3 in
  List.iter
    (fun inputs ->
      Kp_snap.check "snapshot" ~cfg:(Snap.standard ~n:2) ~wiring:w2 ~inputs;
      Kp_ws.check "write-scan"
        ~cfg:(Algorithms.Write_scan.cfg ~n:2 ~m:2)
        ~wiring:w2 ~inputs;
      Kp_dc.check "double-collect"
        ~cfg:(Algorithms.Double_collect.standard ~n:2)
        ~wiring:w2 ~inputs;
      Kp_cons.check "consensus"
        ~stop_expansion:(fun st ->
          Array.exists
            (fun (l : Algorithms.Consensus.local) ->
              l.Algorithms.Consensus.ts >= 2)
            st.Kp_cons.E.locals)
        ~cfg:(Algorithms.Consensus.standard ~n:2)
        ~wiring:w2 ~inputs;
      Kp_ren.check "renaming"
        ~cfg:(Algorithms.Renaming.standard ~n:2)
        ~wiring:w2 ~inputs)
    [ [| 1; 2 |]; [| 1; 1 |] ];
  let inputs = [| 1; 2 |] in
  Kp_mutex.check "rt-mutex" ~cfg:(Algorithms.Rt_mutex.cfg ~n:2 ~m:3) ~wiring:w3
    ~inputs;
  Kp_leader.check "weak-leader"
    ~cfg:(Algorithms.Weak_leader.cfg ~n:2 ~m:3)
    ~wiring:w3 ~inputs;
  Kp_naming.check "naming" ~cfg:(Algorithms.Naming.cfg ~n:2 ~m:3) ~wiring:w3
    ~inputs

(* --- packed keys ------------------------------------------------------------ *)

module KL = Modelcheck.Key_layout

(* Random layouts and wide keys: pack/unpack round-trips, [patch] rewrites
   exactly its range, padding stays clear, and a value past its width is
   refused by name. *)
let test_key_layout_fields () =
  let rs = Random.State.make [| 37 |] in
  for _ = 1 to 2_000 do
    let n = Random.State.int rs 40 in
    let bits = Array.init n (fun _ -> Random.State.int rs 9) in
    let t = KL.make bits in
    let draw () =
      String.init n (fun i -> Char.chr (Random.State.int rs (1 lsl bits.(i))))
    in
    let wide = draw () in
    let packed = KL.pack t wide in
    Alcotest.(check int) "width" ((Array.fold_left ( + ) 0 bits + 7) / 8)
      (String.length packed);
    Alcotest.(check string) "unpack (pack k) = k" wide (KL.unpack t packed);
    Alcotest.(check bool) "padding clear" true (KL.padding_clear t packed);
    if n > 0 then begin
      let pos = Random.State.int rs n in
      let len = Random.State.int rs (n - pos + 1) in
      let other = Bytes.of_string (draw ()) in
      let dst = Bytes.of_string packed in
      KL.patch t other ~pos ~len dst;
      let want =
        String.init n (fun i ->
            if i >= pos && i < pos + len then Bytes.get other i else wide.[i])
      in
      Alcotest.(check string) "patch rewrites its range only" want
        (KL.unpack t (Bytes.to_string dst));
      let i = Random.State.int rs n in
      if bits.(i) < 8 then begin
        let bad = Bytes.of_string wide in
        Bytes.set bad i (Char.chr (1 lsl bits.(i)));
        match KL.pack t (Bytes.to_string bad) with
        | exception KL.Field_overflow { field; bits = b; _ } ->
            Alcotest.(check (pair int int)) "overflow names its field" (i, bits.(i))
              (field, b)
        | _ -> Alcotest.fail "a value past its width was packed"
      end
    end
  done

(* The codec [P] with every field declared a full byte: its packed key
   is its wide key, the layout the engines stored before packing. *)
module Wide (P : Modelcheck.Explorer.CHECKABLE) = struct
  include P

  let local_bits cfg _ = Array.make (P.local_width cfg) 8
  let value_bits cfg _ = Array.make (P.value_width cfg) 8
end

(* Every reachable state of a codec's n = 2 spaces, packed and wide: the
   BFS mints the same ids for the same wide keys with the same edge and
   terminal counts, every key round-trips through its layout, the packed
   step ([successor_packed]) patches the parent's key into exactly the
   successor's packed key, every symmetry moves a state to the state its
   key image encodes ([apply_element], which the reduced DFS uses in
   place of decoding), and the DFS returns the same verdict and
   counts. *)
module Layout_battery (P : Modelcheck.Explorer.CHECKABLE) = struct
  module E = Modelcheck.Explorer.Make (P)
  module W = Modelcheck.Explorer.Make (Wide (P))

  let dfs_view stats processors =
    ( processors,
      [ stats.E.dfs_states; stats.dfs_transitions; stats.dfs_terminals; stats.dfs_max_depth ] )

  let wdfs_view (stats : W.dfs_stats) processors =
    ( processors,
      [ stats.W.dfs_states; stats.dfs_transitions; stats.dfs_terminals; stats.dfs_max_depth ] )

  let check ?stop_expansion name ~cfg ~wirings ~inputs =
    let layout = E.layout cfg inputs in
    let wide = Bytes.create (E.key_width cfg) and buf = Bytes.create (KL.width layout) in
    let wstop =
      Option.map
        (fun f (st : W.state) -> f { E.locals = st.W.locals; registers = st.W.registers })
        stop_expansion
    in
    List.iter
      (fun wiring ->
        let name = Fmt.str "%s %a" name Anonmem.Wiring.pp wiring in
        let canon = E.canon_of ~cfg ~wiring ~inputs in
        (match
           ( E.explore ?stop_expansion ~cfg ~wiring ~inputs (),
             W.explore ?stop_expansion:wstop ~cfg ~wiring ~inputs () )
         with
        | E.Explored sp, W.Explored wp ->
            Alcotest.(check (list int)) (name ^ ": states, transitions, terminals")
              [ W.state_count wp; W.transition_count wp; List.length wp.W.terminal ]
              [ E.state_count sp; E.transition_count sp; List.length sp.E.terminal ];
            for id = 0 to E.state_count sp - 1 do
              let key = E.key_of sp id and packed = Modelcheck.State_table.key_of_id sp.E.table id in
              if not (String.equal (KL.pack layout key) packed) then
                Alcotest.failf "%s: id %d does not round-trip" name id;
              if W.find wp key <> Some id then
                Alcotest.failf "%s: id %d is another state in the wide space" name id;
              let st = E.state_of sp id in
              if not (String.equal (E.encode_state cfg st) key) then
                Alcotest.failf "%s: id %d does not decode to its key" name id;
              for k = 0 to Modelcheck.Canon.group_order canon - 1 do
                if
                  not
                    (String.equal
                       (E.encode_state cfg (E.apply_element canon k st))
                       (Modelcheck.Canon.image canon (Bytes.of_string key) k))
                then Alcotest.failf "%s: id %d: symmetry %d is not its key image" name id k
              done;
              List.iter
                (fun mv ->
                  let action = Option.get (E.action_of cfg st mv) in
                  Bytes.fill buf 0 (Bytes.length buf) '\255';
                  let st' = E.successor_packed cfg layout wiring st packed mv action wide buf in
                  if not (String.equal (Bytes.to_string buf) (KL.pack layout (E.encode_state cfg st')))
                  then Alcotest.failf "%s: id %d move %d: patched key differs" name id mv)
                (if match stop_expansion with Some f -> f st | None -> false then []
                 else E.enabled cfg st)
            done
        | _ -> Alcotest.failf "%s: a BFS did not explore" name);
        let packed =
          match E.check_exhaustive ?stop_expansion ~cfg ~wiring ~inputs () with
          | E.Dfs_ok s -> dfs_view s []
          | E.Dfs_cycle { processors; stats } -> dfs_view stats processors
          | _ -> Alcotest.failf "%s: packed DFS stopped" name
        in
        let wide =
          match W.check_exhaustive ?stop_expansion:wstop ~cfg ~wiring ~inputs () with
          | W.Dfs_ok s -> wdfs_view s []
          | W.Dfs_cycle { processors; stats } -> wdfs_view stats processors
          | _ -> Alcotest.failf "%s: wide DFS stopped" name
        in
        Alcotest.(check (pair (list int) (list int))) (name ^ ": DFS verdict and counts") wide
          packed)
      wirings
end

module Lb_snap = Layout_battery (SnapC)
module Lb_ws = Layout_battery (WsC)
module Lb_dc = Layout_battery (DcC)
module Lb_cons = Layout_battery (Modelcheck.Codecs.Consensus)
module Lb_ren = Layout_battery (Modelcheck.Codecs.Renaming)
module Lb_mutex = Layout_battery (Modelcheck.Codecs.Rt_mutex)
module Lb_leader = Layout_battery (Modelcheck.Codecs.Weak_leader)
module Lb_naming = Layout_battery (Modelcheck.Codecs.Naming)

let test_layout_battery () =
  let w22 = Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true in
  let w23 = Anonmem.Wiring.enumerate ~n:2 ~m:3 ~fix_first:true in
  List.iter
    (fun inputs ->
      Lb_snap.check "snapshot" ~cfg:(Snap.standard ~n:2) ~wirings:w22 ~inputs;
      Lb_snap.check "snapshot any-order"
        ~cfg:{ (Snap.standard ~n:2) with write_order = Any }
        ~wirings:w22 ~inputs;
      Lb_ws.check "write-scan" ~cfg:(Algorithms.Write_scan.cfg ~n:2 ~m:2) ~wirings:w22 ~inputs;
      Lb_dc.check "double-collect" ~cfg:(Algorithms.Double_collect.standard ~n:2) ~wirings:w22
        ~inputs;
      (* consensus values are 1..3 *)
      if Array.for_all (fun v -> v >= 1) inputs then
      Lb_cons.check "consensus"
        ~stop_expansion:(fun st ->
          Array.exists
            (fun (l : Algorithms.Consensus.local) -> l.Algorithms.Consensus.ts >= 2)
            st.Lb_cons.E.locals)
        ~cfg:(Algorithms.Consensus.standard ~n:2) ~wirings:w22 ~inputs;
      Lb_ren.check "renaming" ~cfg:(Algorithms.Renaming.standard ~n:2) ~wirings:w22 ~inputs;
      Lb_mutex.check "rt-mutex" ~cfg:(Algorithms.Rt_mutex.cfg ~n:2 ~m:3) ~wirings:w23 ~inputs;
      Lb_leader.check "weak-leader" ~cfg:(Algorithms.Weak_leader.cfg ~n:2 ~m:3) ~wirings:w23
        ~inputs;
      Lb_naming.check "naming" ~cfg:(Algorithms.Naming.cfg ~n:2 ~m:3) ~wirings:w23 ~inputs)
    [ [| 1; 2 |]; [| 1; 1 |]; [| 0; 3 |] ]

(* At n = 2 every symmetry is its own inverse, so the battery cannot tell
   [apply_element] from its inverse; the rotation wiring's group under
   equal inputs at n = 3 has 3-cycles in both processors and registers.
   Checked on the level-1-bounded prefix of the space. *)
let test_apply_element_n3 () =
  let cfg = Snap.standard ~n:3 and inputs = [| 1; 1; 1 |] in
  let wiring = Anonmem.Wiring.of_lists [ [ 0; 1; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ] ] in
  let canon = MC.canon_of ~cfg ~wiring ~inputs in
  Alcotest.(check int) "group order" 3 (Modelcheck.Canon.group_order canon);
  let stop (st : MC.state) = Array.exists (fun l -> Snap.level_of_local l >= 1) st.MC.locals in
  match MC.explore ~stop_expansion:stop ~cfg ~wiring ~inputs () with
  | MC.Explored sp ->
      for id = 0 to MC.state_count sp - 1 do
        let st = MC.state_of sp id in
        let key = Bytes.of_string (MC.encode_state cfg st) in
        for k = 0 to 2 do
          if
            not
              (String.equal
                 (MC.encode_state cfg (MC.apply_element canon k st))
                 (Modelcheck.Canon.image canon key k))
          then Alcotest.failf "id %d: symmetry %d is not its key image" id k
        done
      done
  | _ -> Alcotest.fail "the bounded BFS did not explore"

(* The snapshot codec with its level field declared one bit narrower
   than the n = 2 run needs: the engines stop with the structured error
   at the first level-2 state instead of merging states into a smaller
   count. *)
module Narrow_level = struct
  include SnapC

  let local_bits cfg inputs =
    let b = SnapC.local_bits cfg inputs in
    b.(1) <- b.(1) - 1;
    b
end

module MCN = Modelcheck.Explorer.Make (Narrow_level)

let test_narrowed_width_refused () =
  let cfg = Snap.standard ~n:2 and inputs = [| 1; 2 |] in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let refused what f =
    match f () with
    | exception KL.Field_overflow { value = 2; bits = 1; _ } -> ()
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
    | () -> Alcotest.failf "%s: a narrowed layout returned a count" what
  in
  refused "DFS" (fun () -> ignore (MCN.check_exhaustive ~cfg ~wiring ~inputs ()));
  refused "reduced DFS" (fun () ->
      ignore (MCN.check_exhaustive ~reduction:true ~cfg ~wiring ~inputs:[| 1; 1 |] ()));
  refused "BFS" (fun () -> ignore (MCN.explore ~cfg ~wiring ~inputs ()))

(* --- the snapshot invariant ------------------------------------------------ *)

(* The list-based definition [Core.snapshot_invariant] had before it
   scanned the locals in place, kept as the oracle: every verdict and
   message must agree, own-input before non-participants before
   incomparable, at the first offending processor. *)
let oracle_snapshot_invariant cfg inputs (st : Core.Snapshot_mc.state) =
  let participating = Iset.of_list (Array.to_list inputs) in
  let outs =
    Array.to_list st.Core.Snapshot_mc.locals
    |> List.mapi (fun p l -> (p, Snap.output cfg l))
    |> List.filter_map (fun (p, o) -> Option.map (fun o -> (p, o)) o)
  in
  let rec check = function
    | [] -> Ok ()
    | (p, o) :: rest ->
        if not (Iset.mem inputs.(p) o) then
          Error (Fmt.str "output of p%d misses its own input" (p + 1))
        else if not (Iset.subset o participating) then
          Error (Fmt.str "output of p%d contains non-participants" (p + 1))
        else if List.exists (fun (_, o') -> not (Iset.comparable o o')) rest
        then Error (Fmt.str "incomparable outputs (p%d)" (p + 1))
        else check rest
  in
  check outs

let invariant_against_oracle ~what cfg inputs =
  let check = Core.snapshot_invariant cfg inputs in
  let states = ref 0 in
  let invariant st =
    incr states;
    let got = check st in
    if got <> oracle_snapshot_invariant cfg inputs st then
      Alcotest.failf "%s: verdict differs from the list-based oracle" what;
    got
  in
  (invariant, states)

let test_snapshot_invariant_differential () =
  (* every reachable state of every n=2 wiring, both input shapes *)
  List.iter
    (fun inputs ->
      List.iter
        (fun wiring ->
          let cfg = Snap.standard ~n:2 in
          let invariant, states =
            invariant_against_oracle ~what:"n=2" cfg inputs
          in
          match MC.check_exhaustive ~invariant ~cfg ~wiring ~inputs () with
          | MC.Dfs_ok s ->
              Alcotest.(check int) "invariant saw every state" s.MC.dfs_states
                !states
          | _ -> Alcotest.fail "snapshot n=2 must verify")
        (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true))
    [ [| 1; 2 |]; [| 1; 1 |] ];
  (* every reachable state of the benchmark's n=3 space: inputs 1,1,1 on
     the wiring class with the smallest unreduced space (1,721,671
     states); the spaces with distinct inputs run to tens of millions *)
  let cfg = Snap.standard ~n:3 and inputs = [| 1; 1; 1 |] in
  let invariant, states = invariant_against_oracle ~what:"n=3" cfg inputs in
  match
    MC.check_exhaustive ~invariant ~cfg
      ~wiring:(List.nth (Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true) 9)
      ~inputs ()
  with
  | MC.Dfs_ok s ->
      Alcotest.(check int) "n=3 states" 1_721_671 s.MC.dfs_states;
      Alcotest.(check int) "invariant saw every state" s.MC.dfs_states !states
  | _ -> Alcotest.fail "snapshot n=3 must verify"

(* States planted to trip each message, alone and in combination. *)
let test_snapshot_invariant_planted () =
  let cfg = Snap.standard ~n:3 and inputs = [| 1; 2; 3 |] in
  let check = Core.snapshot_invariant cfg inputs in
  let running = Snap.init cfg 1 in
  let done_with view =
    {
      SC.view = Iset.of_list view;
      level = 3;
      written = 0;
      phase = SC.Writing;
    }
  in
  let state locals =
    {
      MC.locals = Array.of_list locals;
      registers = Array.make 3 (Snap.register_init cfg);
    }
  in
  let expect what locals expected =
    let st = state locals in
    Alcotest.(check (result unit string)) (what ^ " vs oracle")
      (oracle_snapshot_invariant cfg inputs st) (check st);
    Alcotest.(check (result unit string)) what expected (check st)
  in
  expect "own input" [ done_with [ 2 ]; running; running ]
    (Error "output of p1 misses its own input");
  expect "non-participant" [ running; done_with [ 2; 7 ]; running ]
    (Error "output of p2 contains non-participants");
  expect "incomparable" [ done_with [ 1; 2 ]; running; done_with [ 1; 3 ] ]
    (Error "incomparable outputs (p1)");
  expect "own input before incomparable"
    [ done_with [ 2; 3 ]; done_with [ 1; 2 ]; running ]
    (Error "output of p1 misses its own input");
  expect "non-participant before own input of a later processor"
    [ done_with [ 1 ]; done_with [ 1; 2; 9 ]; done_with [ 1 ] ]
    (Error "output of p2 contains non-participants");
  expect "first offender wins" [ running; done_with [ 2 ]; done_with [ 3 ] ]
    (Error "incomparable outputs (p2)");
  expect "chain is fine"
    [ done_with [ 1 ]; done_with [ 1; 2 ]; done_with [ 1; 2; 3 ] ]
    (Ok ())

(* Counts every codec call the engine makes, like the benchmark's traced
   runs do. *)
let encode_calls = ref 0
let decode_calls = ref 0

module Counted_snap = struct
  include SnapC

  let encode_value cfg v b o =
    incr encode_calls;
    SnapC.encode_value cfg v b o

  let encode_local cfg l b o =
    incr encode_calls;
    SnapC.encode_local cfg l b o

  let decode_value cfg b o =
    incr decode_calls;
    SnapC.decode_value cfg b o

  let decode_local cfg b o =
    incr decode_calls;
    SnapC.decode_local cfg b o
end

module MCC = Modelcheck.Explorer.Make (Counted_snap)

(* The unreduced DFS never decodes (each frame keeps the concrete state)
   and re-encodes at most the stepping processor's local and one written
   register per transition; the initial state is encoded once in full. *)
let test_dfs_codec_call_budget () =
  let cfg = Snap.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  let components = Snap.processors cfg + Snap.registers cfg in
  List.iter
    (fun wiring ->
      encode_calls := 0;
      decode_calls := 0;
      match
        MCC.check_exhaustive
          ~invariant:(fun st ->
            Core.snapshot_invariant cfg inputs
              { MC.locals = st.MCC.locals; registers = st.MCC.registers })
          ~cfg ~wiring ~inputs ()
      with
      | MCC.Dfs_ok s ->
          Alcotest.(check int) "no decode calls" 0 !decode_calls;
          let budget = (2 * s.MCC.dfs_transitions) + components in
          if !encode_calls > budget then
            Alcotest.failf "%d encode calls for %d transitions (budget %d)"
              !encode_calls s.MCC.dfs_transitions budget
      | _ -> Alcotest.fail "snapshot n=2 must verify")
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

let () =
  Alcotest.run "modelcheck"
    [
      ( "codecs",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_codec_roundtrip;
          Alcotest.test_case "out-of-range rejected" `Quick
            test_codec_rejects_out_of_range;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "solo snapshot" `Quick test_explore_solo_snapshot;
          Alcotest.test_case "invariant violation" `Quick
            test_explore_finds_invariant_violation;
          Alcotest.test_case "state limit" `Quick test_explore_state_limit;
          Alcotest.test_case "reduced root invariant" `Quick
            test_reduced_root_invariant;
          Alcotest.test_case "successor_key = successor + encode, all codecs"
            `Quick test_successor_key_all_codecs;
          Alcotest.test_case "snapshot invariant = list-based oracle" `Quick
            test_snapshot_invariant_differential;
          Alcotest.test_case "snapshot invariant planted violations" `Quick
            test_snapshot_invariant_planted;
          Alcotest.test_case "DFS codec call budget" `Quick
            test_dfs_codec_call_budget;
          Alcotest.test_case "trace reconstruction" `Quick test_trace_reconstruction;
        ] );
      ( "wait-freedom",
        [
          Alcotest.test_case "write-scan diverges (DFS)" `Quick
            test_write_scan_diverges;
          Alcotest.test_case "write-scan diverges (BFS SCC)" `Quick
            test_write_scan_bfs_divergence_agrees;
          Alcotest.test_case "n=1 snapshot acyclic" `Quick test_snapshot_n1_acyclic;
        ] );
      ( "tlc-claim-n2",
        [
          Alcotest.test_case "all wirings verified" `Quick
            test_verify_snapshot_n2_all_wirings;
          Alcotest.test_case "group inputs verified" `Quick
            test_verify_snapshot_n2_groups;
          Alcotest.test_case "BFS/DFS agree" `Quick test_bfs_and_dfs_agree_on_counts;
          Alcotest.test_case "terminal outcomes valid" `Quick
            test_terminal_outcomes_valid;
        ] );
      ( "double-collect",
        [ Alcotest.test_case "explorable" `Quick test_double_collect_explored ] );
      ( "key-layout",
        [
          Alcotest.test_case "fields round-trip and patch" `Quick test_key_layout_fields;
          Alcotest.test_case "packed = wide, all codecs" `Quick test_layout_battery;
          Alcotest.test_case "narrowed width refused" `Quick test_narrowed_width_refused;
          Alcotest.test_case "symmetry moves a state to its key image" `Quick
            test_apply_element_n3;
        ] );
      (* Named after the retired packed n = 3 checker, whose cases these
         were; they now test Figure 3's moves ([Codecs.Snapshot]) on the
         generic engines.  The name keeps the suite's test ids stable. *)
      ( "snapshot3",
        [
          Alcotest.test_case "ND: choices and targets" `Quick
            test_fig3_nd_choices;
          Alcotest.test_case "cyclic: count pin" `Quick
            test_fig3_cyclic_count_pin;
          Alcotest.test_case "cyclic: witness path replays" `Quick
            test_fig3_cyclic_path_replays;
          Alcotest.test_case "ND: witness path replays" `Quick
            test_fig3_any_path_replays;
          Alcotest.test_case "ND: single-group refuted" `Quick
            test_fig3_nd_search_smoke;
          Alcotest.test_case "ND: step-numbered engines refuse choices" `Quick
            test_choices_refused;
        ] );
      ( "consensus-codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_consensus_codec_roundtrip;
          Alcotest.test_case "bounds" `Quick test_consensus_codec_bounds;
        ] );
      ( "codec-qcheck",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_local;
          QCheck_alcotest.to_alcotest prop_snapshot_value;
          QCheck_alcotest.to_alcotest prop_write_scan_local;
          QCheck_alcotest.to_alcotest prop_double_collect_local;
          QCheck_alcotest.to_alcotest prop_consensus_local;
          QCheck_alcotest.to_alcotest prop_consensus_value;
          QCheck_alcotest.to_alcotest prop_renaming_local;
          Alcotest.test_case "out-of-range leaves neighbours intact" `Quick
            test_codecs_out_of_range_structured;
        ] );
    ]
