(* Differential verification matrix for the literature portfolio
   (Rt_mutex, Naming, Weak_leader): the three engines — sequential BFS,
   symmetry-reduced sequential, and the sharded parallel BFS at 1/2/4
   domains — must agree on every (task, n, m) cell they all cover; clean
   cells verify, violating cells produce witnesses that replay through
   Witness.Replay; the planted-bug variants are caught with replayable
   counterexamples; and crash-stop runs stay inside the fault-free
   spaces where exclusion and distinctness hold.

   Small n=2 cells (and cheap n=3 violations) run inside @portfolio-smoke
   / `dune runtest`; set PORTFOLIO_LONG=1 for the heavier n=3 cells. *)

module Rm = Algorithms.Rt_mutex
module Nm = Algorithms.Naming
module Wl = Algorithms.Weak_leader
module RmE = Modelcheck.Explorer.Make (Modelcheck.Codecs.Rt_mutex)
module RmPar = Modelcheck.Par_explorer.Make (Modelcheck.Codecs.Rt_mutex)
module RmReplay = Modelcheck.Witness.Replay (Modelcheck.Codecs.Rt_mutex)
module NmE = Modelcheck.Explorer.Make (Modelcheck.Codecs.Naming)
module NmPar = Modelcheck.Par_explorer.Make (Modelcheck.Codecs.Naming)
module NmReplay = Modelcheck.Witness.Replay (Modelcheck.Codecs.Naming)
module WlE = Modelcheck.Explorer.Make (Modelcheck.Codecs.Weak_leader)
module WlReplay = Modelcheck.Witness.Replay (Modelcheck.Codecs.Weak_leader)

let long_mode = Stdlib.Sys.getenv_opt "PORTFOLIO_LONG" <> None

let verdict_kind = function
  | Core.Verified _ -> "verified"
  | Core.Safety_violation _ -> "safety"
  | Core.Liveness_violation _ -> "liveness"
  | Core.Exhausted _ -> "exhausted"

(* --- clean cells: three-engine agreement --------------------------------- *)

(* The spin loops put real (unfair) cycles in even the deadlock-free
   spaces, so the DFS sweep stops early at the first back edge and its
   partial state count is not comparable; the exact parity bar is the
   per-wiring sequential BFS against the sharded parallel BFS at each
   domain count, unreduced and reduced. *)
let test_mutex_clean_cell_all_engines () =
  let n = 2 and m = 3 in
  let cfg = Rm.cfg ~n ~m in
  let inputs = Array.init n (fun i -> i + 1) in
  let invariant = Core.mutex_invariant cfg in
  (* The Core verifier must certify the cell over every wiring. *)
  (match Core.verify_mutex ~n ~m () with
  | Core.Verified { wirings; _ } ->
      Alcotest.(check int) "mutex(2,3): all wirings" 6 wirings
  | v -> Alcotest.failf "mutex(2,3): %s" (verdict_kind v));
  let wirings = Anonmem.Wiring.enumerate ~n ~m ~fix_first:true in
  let seq_total reduction =
    List.fold_left
      (fun acc wiring ->
        match RmE.explore ~invariant ~reduction ~cfg ~wiring ~inputs () with
        | RmE.Explored sp -> acc + RmE.state_count sp
        | _ -> Alcotest.fail "mutex(2,3): sequential BFS must stay clean")
      0 wirings
  in
  let seq_states = seq_total false and seq_red_states = seq_total true in
  Alcotest.(check bool)
    "mutex(2,3): reduction never grows the space" true
    (seq_red_states <= seq_states);
  List.iter
    (fun domains ->
      List.iter
        (fun reduction ->
          let nm =
            Printf.sprintf "mutex(2,3) par%d%s" domains
              (if reduction then " reduced" else "")
          in
          let par_states =
            List.fold_left
              (fun acc wiring ->
                match
                  RmPar.explore ~invariant ~reduction ~domains ~cfg ~wiring
                    ~inputs ()
                with
                | RmPar.Par_ok { stats; _ } -> acc + stats.RmPar.states
                | _ -> Alcotest.failf "%s: parallel BFS must stay clean" nm)
              0 wirings
          in
          Alcotest.(check int)
            (nm ^ ": visited-state parity")
            (if reduction then seq_red_states else seq_states)
            par_states)
        [ false; true ])
    [ 1; 2; 4 ]

let test_naming_clean_cell_all_engines () =
  let n = 2 and m = 3 in
  let cfg = Nm.cfg ~n ~m in
  let inputs = Array.init n (fun i -> i + 1) in
  let invariant = Core.naming_invariant cfg in
  (match Core.verify_naming ~n ~m () with
  | Core.Verified _ -> ()
  | v -> Alcotest.failf "naming(2,3): %s" (verdict_kind v));
  let wirings = Anonmem.Wiring.enumerate ~n ~m ~fix_first:true in
  let seq_states =
    List.fold_left
      (fun acc wiring ->
        match
          NmE.explore ~invariant ~reduction:false ~cfg ~wiring ~inputs ()
        with
        | NmE.Explored sp -> acc + NmE.state_count sp
        | _ -> Alcotest.fail "naming(2,3): sequential BFS must stay clean")
      0 wirings
  in
  List.iter
    (fun domains ->
      let nm = Printf.sprintf "naming(2,3) par%d" domains in
      let par_states =
        List.fold_left
          (fun acc wiring ->
            match NmPar.explore ~invariant ~domains ~cfg ~wiring ~inputs () with
            | NmPar.Par_ok { stats; _ } -> acc + stats.NmPar.states
            | _ -> Alcotest.failf "%s: parallel BFS must stay clean" nm)
          0 wirings
      in
      Alcotest.(check int) (nm ^ ": visited-state parity") seq_states par_states)
    [ 1; 2; 4 ]

let test_leader_clean_cell () =
  match Core.verify_leader ~n:2 ~m:2 () with
  | Core.Verified { wirings; _ } ->
      Alcotest.(check int) "leader(2,2): all wirings" 2 wirings
  | v -> Alcotest.failf "leader(2,2): %s" (verdict_kind v)

(* --- violating cells: witnesses must replay ------------------------------ *)

let test_mutex_me_violation_below_floor_replays () =
  (* m=1 is coprime with everything yet ME still breaks — the covering
     floor (Burns–Lynch) is independent of the coprimality condition. *)
  let cfg = Rm.cfg ~n:2 ~m:1 in
  match Core.verify_mutex ~n:2 ~m:1 () with
  | Core.Safety_violation { wiring; path; _ } ->
      Alcotest.(check bool) "mutex(2,1): mid-trace witness" true (path <> []);
      let final =
        RmReplay.final ~cfg ~wiring ~inputs:[| 1; 2 |] path
      in
      (match Core.mutex_invariant cfg final with
      | Error _ -> ()
      | Ok () ->
          Alcotest.fail "mutex(2,1): replayed witness does not violate ME")
  | v -> Alcotest.failf "mutex(2,1): expected safety violation, got %s"
           (verdict_kind v)

(* A lasso witness must be a genuine execution: the stem reaches the
   cycle entry, the cycle returns to it, and every reported spinning
   processor moves along the cycle.  [key path] is the encoded state the
   replayed [path] ends in. *)
let check_lasso name ~key ~live ~stem ~cycle =
  Alcotest.(check bool) (name ^ ": nonempty cycle") true (cycle <> []);
  Alcotest.(check bool)
    (name ^ ": every live processor steps in the cycle")
    true
    (List.for_all (fun p -> List.mem p cycle) live);
  Alcotest.(check string) (name ^ ": cycle closes") (key stem)
    (key (stem @ cycle))

let test_mutex_deadlock_lasso_replays () =
  (* m=2 shares a factor with n=2: the classic non-coprime deadlock. *)
  let cfg = Rm.cfg ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  match Core.verify_mutex ~n:2 ~m:2 () with
  | Core.Liveness_violation { wiring; live; stem; cycle } ->
      check_lasso "mutex(2,2)"
        ~key:(fun path ->
          RmE.encode_state cfg (RmReplay.final ~cfg ~wiring ~inputs path))
        ~live ~stem ~cycle
  | v ->
      Alcotest.failf "mutex(2,2): expected deadlock, got %s" (verdict_kind v)

let test_naming_deadlock_lasso_replays () =
  (* The naming layer inherits the mutex's non-coprime deadlock. *)
  let cfg = Nm.cfg ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  match Core.verify_naming ~n:2 ~m:2 () with
  | Core.Liveness_violation { wiring; live; stem; cycle } ->
      check_lasso "naming(2,2)"
        ~key:(fun path ->
          NmE.encode_state cfg (NmReplay.final ~cfg ~wiring ~inputs path))
        ~live ~stem ~cycle
  | v ->
      Alcotest.failf "naming(2,2): expected deadlock, got %s" (verdict_kind v)

let test_naming_deadlock_detected () =
  match Core.verify_naming ~n:2 ~m:2 () with
  | Core.Liveness_violation { live; _ } ->
      Alcotest.(check (list int)) "naming(2,2): both spin" [ 0; 1 ] live
  | v ->
      Alcotest.failf "naming(2,2): expected deadlock, got %s" (verdict_kind v)

(* The DFS decides a leader cell and the exact BFS explains it: the
   witness is as long as the BFS's minimal trace on the witness's wiring
   and replays to a two-leader state. *)
let check_leader_witness name cfg wiring path =
  let inputs = [| 1; 2 |] in
  Alcotest.(check bool) (name ^ ": mid-trace witness") true (path <> []);
  (match
     WlE.explore ~invariant:(Core.leader_invariant cfg) ~cfg ~wiring ~inputs ()
   with
  | WlE.Invariant_failed (_, v) ->
      Alcotest.(check int)
        (name ^ ": minimal BFS length")
        (List.length v.WlE.trace) (List.length path)
  | _ -> Alcotest.failf "%s: the BFS misses the violation" name);
  match
    Core.leader_invariant cfg (WlReplay.final ~cfg ~wiring ~inputs path)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: replayed witness has < 2 leaders" name

let test_leader_violation_below_floor_replays () =
  (* A single register cannot protect the winner's view: both processors
     elect themselves. *)
  let cfg = Wl.cfg ~n:2 ~m:1 in
  match Core.verify_leader ~n:2 ~m:1 () with
  | Core.Safety_violation { wiring; path; _ } ->
      check_leader_witness "leader(2,1)" cfg wiring path
  | v ->
      Alcotest.failf "leader(2,1): expected safety violation, got %s"
        (verdict_kind v)

(* --- planted bugs -------------------------------------------------------- *)

let test_planted_eager_mutex_caught () =
  (* Eager entry lowers the collect threshold to m-1 held registers: the
     uncollected register hides a rival's claim and two processors seal
     overlapping critical sections. *)
  let cfg = Rm.cfg_eager ~n:2 ~m:3 in
  match Core.verify_mutex ~cfg () with
  | Core.Safety_violation { wiring; path; _ } ->
      Alcotest.(check bool) "eager mutex: mid-trace witness" true (path <> []);
      let final = RmReplay.final ~cfg ~wiring ~inputs:[| 1; 2 |] path in
      (match Core.mutex_invariant cfg final with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "eager mutex: replayed witness is clean")
  | v ->
      Alcotest.failf "eager mutex: expected safety violation, got %s"
        (verdict_kind v)

let test_planted_forgetful_naming_caught () =
  (* A forgetful flood drops the ledger merge, so two processors acquire
     the same name. *)
  let cfg = Nm.cfg_forgetful ~n:2 ~m:3 in
  match Core.verify_naming ~cfg () with
  | Core.Safety_violation { wiring; path; message } ->
      if path <> [] then (
        let final = NmReplay.final ~cfg ~wiring ~inputs:[| 1; 2 |] path in
        match Core.naming_invariant cfg final with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "forgetful naming: replayed witness is clean")
      else
        Alcotest.(check bool)
          "forgetful naming: terminal witness names the clash" true
          (String.length message > 0)
  | v ->
      Alcotest.failf "forgetful naming: expected safety violation, got %s"
        (verdict_kind v)

let test_planted_majority_leader_caught () =
  (* Majority entry declares leadership from a strict majority of the
     view instead of all of it.  At m=2 a strict majority is still
     unanimity, so the smallest cell where the bug bites is m=3: p1
     halts on [1;1;2], then p1's obliterated register lets p2 read a
     second majority. *)
  let cfg = Wl.cfg_majority ~n:2 ~m:3 in
  match Core.verify_leader ~cfg () with
  | Core.Safety_violation { wiring; path; _ } ->
      check_leader_witness "majority leader" cfg wiring path
  | v ->
      Alcotest.failf "majority leader: expected safety violation, got %s"
        (verdict_kind v)

(* --- crash-stop runs ------------------------------------------------------ *)

(* A crash-stop only removes moves, so every state a crash-stop run
   reaches is in the fault-free space, and a clean fault-free space is
   the crash-stop certificate.  Seeded simulator runs under random
   crash-stop plans (one or two crashes, any processor, any time in
   [0, 30)), on every (2,3) wiring, must stay inside the fault-free
   space, whose invariant held on every state.  The survivors of a
   crashed lock holder spin, so each run stops after 200 steps. *)
module Crash_runs (P : Anonmem.Protocol.S with type input = int) = struct
  module S = Anonmem.System.Make (P)

  let run ~cfg ~wiring ~inputs inside =
    let n = P.processors cfg in
    let fired = ref 0 in
    for seed = 0 to 99 do
      let rng = Repro_util.Rng.create ~seed in
      let plan =
        List.init
          (1 + Repro_util.Rng.int rng 2)
          (fun _ ->
            Anonmem.Fault.Crash_stop
              {
                p = Repro_util.Rng.int rng n;
                at = Repro_util.Rng.int rng 30;
              })
      in
      let s = S.init ~cfg ~wiring ~inputs in
      let check () =
        if not (inside s.S.locals s.S.registers) then
          Alcotest.failf "wiring %a, plan [%s]: a state outside the fault-free \
                          space"
            Anonmem.Wiring.pp wiring
            (Anonmem.Fault.to_string plan)
      in
      check ();
      ignore
        (S.run ~max_steps:200 ~faults:plan
           ~sched:(Anonmem.Scheduler.random rng)
           ~on_event:(fun ~time:_ _ -> check ())
           ~on_fault:(fun ~time:_ -> function
             | S.Crash_note { recovering = false; _ } -> incr fired
             | _ -> ())
           s)
    done;
    !fired
end

let wirings23 = Anonmem.Wiring.enumerate ~n:2 ~m:3 ~fix_first:true

let test_mutex_exclusion_survives_crashes () =
  let module FE = Core.Rt_mutex_mc in
  let module R = Crash_runs (Rm) in
  let cfg = Rm.cfg ~n:2 ~m:3 and inputs = [| 1; 2 |] in
  List.iter
    (fun wiring ->
      match
        FE.explore ~invariant:(Core.mutex_invariant cfg) ~cfg ~wiring ~inputs ()
      with
      | FE.Explored space ->
          let fired =
            R.run ~cfg ~wiring ~inputs (fun locals registers ->
                FE.mem space (FE.encode_state cfg { FE.locals; registers }))
          in
          Alcotest.(check bool) "crashes stopped live processors" true
            (fired > 0)
      | _ -> Alcotest.fail "mutex(2,3): the fault-free space must verify")
    wirings23

let test_naming_distinctness_survives_crashes () =
  let module FE = Core.Naming_mc in
  let module R = Crash_runs (Nm) in
  let cfg = Nm.cfg ~n:2 ~m:3 and inputs = [| 1; 2 |] in
  List.iter
    (fun wiring ->
      match
        FE.explore ~invariant:(Core.naming_invariant cfg) ~cfg ~wiring ~inputs
          ()
      with
      | FE.Explored space ->
          let fired =
            R.run ~cfg ~wiring ~inputs (fun locals registers ->
                FE.mem space (FE.encode_state cfg { FE.locals; registers }))
          in
          Alcotest.(check bool) "crashes stopped live processors" true
            (fired > 0)
      | _ -> Alcotest.fail "naming(2,3): the fault-free space must verify")
    wirings23

(* --- n=3 cells ----------------------------------------------------------- *)

let test_mutex_n3_noncoprime_violations () =
  (* Cheap at n=3: violations return on the first offending wiring. *)
  (match Core.verify_mutex ~n:3 ~m:2 () with
  | Core.Safety_violation _ | Core.Liveness_violation _ -> ()
  | v -> Alcotest.failf "mutex(3,2): expected violation, got %s"
           (verdict_kind v));
  match Core.verify_mutex ~n:3 ~m:3 () with
  | Core.Safety_violation _ | Core.Liveness_violation _ -> ()
  | v ->
      Alcotest.failf "mutex(3,3): expected violation, got %s" (verdict_kind v)

let test_mutex_n3_deadlock_long () =
  if not long_mode then ()
  else
    match Core.verify_mutex ~n:3 ~m:4 () with
    | Core.Liveness_violation _ -> ()
    | v ->
        Alcotest.failf "mutex(3,4): expected deadlock, got %s" (verdict_kind v)

let test_leader_n3_clean_long () =
  if not long_mode then ()
  else
    match Core.verify_leader ~n:3 ~m:2 () with
    | Core.Verified _ -> ()
    | v -> Alcotest.failf "leader(3,2): %s" (verdict_kind v)

(* --- wiring-class quotient ---------------------------------------------- *)

(* [Wiring.enumerate_classes] must partition [enumerate ~fix_first:true]:
   expanding each representative's orbit — every pivot choice, every
   order of the remaining processors, renormalized by the pivot's
   inverse — recovers the full enumeration exactly once.  The sum of
   distinct orbit sizes equalling the full count is precisely the
   partition property (covering + disjoint). *)
let orbit rep =
  let module P = Repro_util.Permutation in
  let n = Anonmem.Wiring.processors rep in
  let m = Anonmem.Wiring.registers rep in
  let perms = Array.init n (fun p -> Anonmem.Wiring.perm rep ~p) in
  let rec orders = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun r -> x :: r) (orders (List.filter (( <> ) x) l)))
          l
  in
  let idxs = List.init n Fun.id in
  List.concat_map
    (fun j ->
      let inv = P.inverse perms.(j) in
      List.map
        (fun order ->
          List.init m Fun.id
          :: List.map (fun k -> P.to_list (P.compose inv perms.(k))) order)
        (orders (List.filter (( <> ) j) idxs)))
    idxs
  |> List.sort_uniq compare

let wiring_as_lists w =
  let module P = Repro_util.Permutation in
  List.init (Anonmem.Wiring.processors w) (fun p ->
      P.to_list (Anonmem.Wiring.perm w ~p))

let check_partition ~n ~m =
  let full =
    Anonmem.Wiring.enumerate ~n ~m ~fix_first:true
    |> List.map wiring_as_lists |> List.sort compare
  in
  let classes = Anonmem.Wiring.enumerate_classes ~n ~m in
  let orbits = List.map orbit classes in
  Alcotest.(check int)
    (Fmt.str "(%d,%d): orbits partition the wiring space" n m)
    (List.length full)
    (List.fold_left (fun acc o -> acc + List.length o) 0 orbits);
  Alcotest.(check (list (list (list int))))
    (Fmt.str "(%d,%d): orbits cover the wiring space" n m)
    full
    (List.concat orbits |> List.sort compare);
  List.length classes

let test_wiring_classes_partition () =
  (* n=2, m=3: orbits pair each wiring with its inverse; the identity
     and the three transpositions are self-inverse, the two 3-cycles
     pair up — 5 classes out of 6 wirings. *)
  Alcotest.(check int) "(2,3): class count" 5 (check_partition ~n:2 ~m:3);
  ignore (check_partition ~n:3 ~m:2);
  ignore (check_partition ~n:3 ~m:3);
  ignore (check_partition ~n:2 ~m:4)

(* The quotient must not change any verdict: clean cells still verify
   (over fewer wirings), violating cells still produce their violation.
   This is the empirical face of the id-agnosticity argument in
   wiring.mli. *)
let test_wiring_classes_verdicts_agree () =
  (match Core.verify_mutex ~n:2 ~m:3 ~wiring_classes:true () with
  | Core.Verified { wirings; _ } ->
      Alcotest.(check int) "mutex(2,3) classes: wirings" 5 wirings
  | v -> Alcotest.failf "mutex(2,3) classes: %s" (verdict_kind v));
  (match Core.verify_naming ~n:2 ~m:3 ~wiring_classes:true () with
  | Core.Verified _ -> ()
  | v -> Alcotest.failf "naming(2,3) classes: %s" (verdict_kind v));
  (match Core.verify_leader ~n:2 ~m:2 ~wiring_classes:true () with
  | Core.Verified _ -> ()
  | v -> Alcotest.failf "leader(2,2) classes: %s" (verdict_kind v));
  (match Core.verify_mutex ~n:2 ~m:2 ~wiring_classes:true () with
  | Core.Liveness_violation _ -> ()
  | v -> Alcotest.failf "mutex(2,2) classes: %s" (verdict_kind v));
  (match Core.verify_mutex ~n:3 ~m:2 ~wiring_classes:true () with
  | Core.Safety_violation { wiring; path; _ } ->
      (* The witness is a concrete wiring of the full space, so it
         replays exactly like an unquotiented one. *)
      if path <> [] then begin
        let cfg = Rm.cfg ~n:3 ~m:2 in
        let inputs = [| 1; 2; 3 |] in
        let final = RmReplay.final ~cfg ~wiring ~inputs path in
        match Core.mutex_invariant cfg final with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "mutex(3,2) classes: witness did not replay"
      end
  | v -> Alcotest.failf "mutex(3,2) classes: %s" (verdict_kind v));
  match Core.verify_leader ~n:2 ~m:1 ~wiring_classes:true () with
  | Core.Safety_violation _ -> ()
  | v -> Alcotest.failf "leader(2,1) classes: %s" (verdict_kind v)

(* --- packed single-word engine ------------------------------------------ *)

(* The packed sweep must reproduce the generic verdict on every cell it
   covers — verified wirings with the exact state total, and on
   violating cells the same verdict kind with the same witness (the
   packed path falls back to the generic engine on the offending wiring,
   so the witnesses are literally identical). *)
let test_packed_mutex_parity () =
  let same_verdict name a b =
    match (a, b) with
    | Core.Verified { wirings = w1; states = s1 },
      Core.Verified { wirings = w2; states = s2 } ->
        Alcotest.(check int) (name ^ ": wiring parity") w1 w2;
        Alcotest.(check int) (name ^ ": state parity") s1 s2
    | Core.Safety_violation { path = p1; _ },
      Core.Safety_violation { path = p2; _ } ->
        Alcotest.(check int)
          (name ^ ": witness parity")
          (List.length p1) (List.length p2)
    | Core.Liveness_violation { live = l1; _ },
      Core.Liveness_violation { live = l2; _ } ->
        Alcotest.(check (list int)) (name ^ ": live-set parity") l1 l2
    | a, b ->
        Alcotest.failf "%s: generic %s vs packed %s" name (verdict_kind a)
          (verdict_kind b)
  in
  let generic ?wiring_classes n m =
    let cfg = Rm.cfg ~n ~m in
    Core.Rt_mutex_mc.verify ?wiring_classes ~invariant:(Core.mutex_invariant cfg)
      ~task:Tasks.Mutex_task.check ~cfg
      ~inputs:(Array.init n (fun i -> i + 1))
      ~n ~m ()
  in
  List.iter
    (fun (n, m) ->
      let name = Printf.sprintf "mutex(%d,%d) packed" n m in
      same_verdict name (generic n m) (Core.verify_mutex ~n ~m ());
      same_verdict (name ^ " classes")
        (generic ~wiring_classes:true n m)
        (Core.verify_mutex ~n ~m ~wiring_classes:true ()))
    [ (2, 1); (2, 2); (2, 3); (2, 4); (3, 2); (3, 3) ]

let test_packed_planted_eager_caught () =
  (* The planted eager bug must not slip past the packed fast path: the
     packed sweep flags the wiring, the generic fallback extracts the
     replayable witness. *)
  let cfg = Rm.cfg_eager ~n:2 ~m:3 in
  match Core.verify_mutex ~cfg () with
  | Core.Safety_violation { wiring; path; _ } ->
      Alcotest.(check bool) "packed eager: mid-trace witness" true (path <> []);
      let final = RmReplay.final ~cfg ~wiring ~inputs:[| 1; 2 |] path in
      (match Core.mutex_invariant cfg final with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "packed eager: replayed witness is clean")
  | v ->
      Alcotest.failf "packed eager: expected safety violation, got %s"
        (verdict_kind v)

(* The packed sweep stops early only on its governor: a quota of 10
   Tarjan steps leaves the (2,3) cell exhausted with a partial count. *)
let test_packed_state_cap () =
  let governor = Modelcheck.Governor.create ~quota:10 () in
  match Core.verify_mutex ~n:2 ~m:3 ~governor () with
  | Core.Exhausted { reason = Modelcheck.Governor.Quota; states_visited; _ } ->
      Alcotest.(check bool) "partial count" true (states_visited > 0)
  | v ->
      Alcotest.failf "packed quota: expected exhausted, got %s" (verdict_kind v)

let () =
  Alcotest.run "portfolio"
    [
      ( "clean-cells",
        [
          Alcotest.test_case "mutex (2,3): three engines agree" `Quick
            test_mutex_clean_cell_all_engines;
          Alcotest.test_case "naming (2,3): three engines agree" `Quick
            test_naming_clean_cell_all_engines;
          Alcotest.test_case "leader (2,2): verified" `Quick
            test_leader_clean_cell;
        ] );
      ( "violations",
        [
          Alcotest.test_case "mutex (2,1): ME witness replays" `Quick
            test_mutex_me_violation_below_floor_replays;
          Alcotest.test_case "mutex (2,2): deadlock lasso replays" `Quick
            test_mutex_deadlock_lasso_replays;
          Alcotest.test_case "naming (2,2): deadlock detected" `Quick
            test_naming_deadlock_detected;
          Alcotest.test_case "naming (2,2) lasso replays" `Quick
            test_naming_deadlock_lasso_replays;
          Alcotest.test_case "leader (2,1): two-leader witness replays" `Quick
            test_leader_violation_below_floor_replays;
          Alcotest.test_case "mutex n=3 non-coprime cells violate" `Quick
            test_mutex_n3_noncoprime_violations;
        ] );
      ( "planted-bugs",
        [
          Alcotest.test_case "eager mutex caught + replayed" `Quick
            test_planted_eager_mutex_caught;
          Alcotest.test_case "forgetful naming caught" `Quick
            test_planted_forgetful_naming_caught;
          Alcotest.test_case "majority leader caught + replayed" `Quick
            test_planted_majority_leader_caught;
        ] );
      ( "crash-sweeps",
        [
          Alcotest.test_case "mutex exclusion survives crashes" `Quick
            test_mutex_exclusion_survives_crashes;
          Alcotest.test_case "naming distinctness survives crashes" `Quick
            test_naming_distinctness_survives_crashes;
        ] );
      ( "wiring-classes",
        [
          Alcotest.test_case "orbits partition the wiring space" `Quick
            test_wiring_classes_partition;
          Alcotest.test_case "quotient preserves every verdict" `Quick
            test_wiring_classes_verdicts_agree;
        ] );
      ( "packed-engine",
        [
          Alcotest.test_case "packed sweep reproduces generic verdicts" `Quick
            test_packed_mutex_parity;
          Alcotest.test_case "packed + planted eager bug replays" `Quick
            test_packed_planted_eager_caught;
          Alcotest.test_case "packed honours the state cap" `Quick
            test_packed_state_cap;
        ] );
      ( "long",
        [
          Alcotest.test_case "mutex (3,4) deadlock [PORTFOLIO_LONG]" `Quick
            test_mutex_n3_deadlock_long;
          Alcotest.test_case "leader (3,2) clean [PORTFOLIO_LONG]" `Quick
            test_leader_n3_clean_long;
        ] );
    ]
