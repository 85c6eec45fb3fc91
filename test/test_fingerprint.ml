(* Differential battery for the disk-spillable fingerprint engine
   (Explorer.explore_fp over Fingerprint_set).

   The contract under test: on every protocol, wiring and input
   assignment the fingerprint engine visits exactly the states the exact
   BFS visits (hash compaction may only ever lose states, and the
   birthday bound says how improbably) — so at these space sizes the
   state, transition and terminal counts must be *equal*, the reported
   omission bound must be < 1e-12, and all of that must survive a
   deliberately starved RAM budget that forces the set through its
   disk-spill path mid-exploration.  Planted bugs must surface as
   Fp_invariant_failed with a minimal counterexample that replays
   through Witness.Replay, and the multi-wiring sweep must agree with
   the exact sweep field by field.  A QCheck model test drives the bare
   Fingerprint_set against a Hashtbl oracle across random batch
   scripts under a 1 KiB budget, exercising in-batch dedup, RAM-tier
   probing and sorted-run merges together; a second one holds the page
   entry to [add_batch] on the same key stream.  The spill tests flip
   bits where a merge that stopped early would not look, and check that
   failed run I/O leaks no descriptor and no [.tmp] file.

   Everything here is tiny (n <= 3, bounded) and runs under @mc-smoke;
   MC_LONG=1 widens the n=3 slice. *)

module Snap = Algorithms.Snapshot
module Fp = Modelcheck.Fingerprint_set

let long_mode = Sys.getenv_opt "MC_LONG" <> None

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> int_of_string s
  | None -> if long_mode then 300 else 100

(* ------------------------------------------------------------------ *)
(* The differential harness, generic in the checkable protocol.       *)
(* ------------------------------------------------------------------ *)

module FpDiff (P : Modelcheck.Explorer.CHECKABLE) = struct
  module E = Modelcheck.Explorer.Make (P)
  module Replay = Modelcheck.Witness.Replay (P)

  type counts = { states : int; transitions : int; terminals : int }

  let exact ?invariant ?stop_expansion ?(reduction = false) ~cfg ~wiring
      ~inputs () =
    match
      E.explore ?invariant ?stop_expansion ~reduction ~cfg ~wiring ~inputs ()
    with
    | E.Explored sp ->
        {
          states = E.state_count sp;
          transitions = E.transition_count sp;
          terminals = List.length sp.E.terminal;
        }
    | E.Invariant_failed (_, v) ->
        Alcotest.failf "exact BFS: unexpected invariant failure: %s" v.E.message
    | E.Exhausted _ -> Alcotest.fail "exact BFS: unexpected exhaustion"

  let fp ?invariant ?stop_expansion ?(reduction = false) ?ram_budget_bytes
      ?batch_states ~cfg ~wiring ~inputs () =
    match
      E.explore_fp ?invariant ?stop_expansion ~reduction ?ram_budget_bytes
        ?batch_states ~cfg ~wiring ~inputs ()
    with
    | E.Fp_explored st -> st
    | E.Fp_invariant_failed { message; _ } ->
        Alcotest.failf "fp BFS: unexpected invariant failure: %s" message
    | E.Fp_exhausted _ -> Alcotest.fail "fp BFS: unexpected exhaustion"

  let check_counts ?(bound = 1e-12) name (ex : counts) (st : E.fp_stats) =
    Alcotest.(check int) (name ^ ": states") ex.states st.E.fp_states;
    Alcotest.(check int)
      (name ^ ": transitions")
      ex.transitions st.E.fp_transitions;
    Alcotest.(check int) (name ^ ": terminals") ex.terminals st.E.fp_terminals;
    Alcotest.(check bool)
      (Fmt.str "%s: omission bound %g < %g" name st.E.fp_bound bound)
      true
      (st.E.fp_bound < bound && st.E.fp_bound >= 0.0)

  (* One (wiring, inputs) cell: exact vs fingerprint at the default
     budget, at a starved 1 KiB budget with 64-state batches (forcing
     layer-by-layer spills on any space past ~100 states), and reduced
     vs reduced.  [bound] scales with the space: states^2 / 2^64 is
     ~7e-13 at 3k states but ~2e-11 at the 19k-state consensus cell. *)
  let cell ?invariant ?stop_expansion ?bound ~name ~cfg ~wiring ~inputs () =
    let ex = exact ?invariant ?stop_expansion ~cfg ~wiring ~inputs () in
    check_counts ?bound name ex
      (fp ?invariant ?stop_expansion ~cfg ~wiring ~inputs ());
    check_counts ?bound (name ^ " starved") ex
      (fp ?invariant ?stop_expansion ~ram_budget_bytes:1024 ~batch_states:64
         ~cfg ~wiring ~inputs ());
    let red =
      exact ?invariant ?stop_expansion ~reduction:true ~cfg ~wiring ~inputs ()
    in
    check_counts ?bound (name ^ " reduced") red
      (fp ?invariant ?stop_expansion ~reduction:true ~cfg ~wiring ~inputs ())
end

module SnapDiff = FpDiff (Modelcheck.Codecs.Snapshot)
module WsDiff = FpDiff (Modelcheck.Codecs.Write_scan)
module DcDiff = FpDiff (Modelcheck.Codecs.Double_collect)
module ConsDiff = FpDiff (Modelcheck.Codecs.Consensus)
module RenDiff = FpDiff (Modelcheck.Codecs.Renaming)

let wirings2 = Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true
let wirings3 = Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true

(* ------------------------------------------------------------------ *)
(* Protocol matrices, mirroring the engine-parity suite.              *)
(* ------------------------------------------------------------------ *)

let test_snapshot_n2_matrix () =
  let cfg = Snap.standard ~n:2 in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          SnapDiff.cell
            ~name:
              (Fmt.str "snapshot n=2 %a %a" Anonmem.Wiring.pp wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~invariant:(Core.snapshot_invariant cfg inputs)
            ~cfg ~wiring ~inputs ())
        [ [| 1; 2 |]; [| 1; 1 |] ])
    wirings2

let snap3_stop level (st : SnapDiff.E.state) =
  Array.exists (fun l -> Snap.level_of_local l >= level) st.SnapDiff.E.locals

let test_snapshot_n3_bounded () =
  let cfg = Snap.standard ~n:3 in
  let level = if long_mode then 2 else 1 in
  let some_wirings =
    match wirings3 with
    | a :: b :: c :: _ -> if long_mode then [ a; b; c ] else [ a; b ]
    | _ -> assert false
  in
  List.iter
    (fun wiring ->
      SnapDiff.cell
        ~name:(Fmt.str "snapshot n=3 lvl<%d %a" level Anonmem.Wiring.pp wiring)
        ~invariant:(Core.snapshot_invariant cfg [| 1; 1; 1 |])
        ~stop_expansion:(snap3_stop level) ~cfg ~wiring ~inputs:[| 1; 1; 1 |] ())
    some_wirings

let test_write_scan_matrix () =
  (* Cyclic spaces: the non-terminating write-scan loop still has a
     finite visited set, so the fingerprint engine terminates with the
     exact counts (it just cannot say anything about wait-freedom). *)
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  List.iter
    (fun wiring ->
      WsDiff.cell
        ~name:(Fmt.str "write-scan %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 2 |] ())
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
      ConsDiff.cell ~bound:1e-9
        ~name:(Fmt.str "consensus %a" Anonmem.Wiring.pp wiring)
        ~stop_expansion:stop ~cfg ~wiring ~inputs:[| 1; 2 |] ())
    wirings2

let test_renaming_matrix () =
  let cfg = Algorithms.Renaming.standard ~n:2 in
  List.iter
    (fun wiring ->
      RenDiff.cell
        ~name:(Fmt.str "renaming %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 1 |] ())
    wirings2

(* ------------------------------------------------------------------ *)
(* Spill engagement and sweep-level agreement.                        *)
(* ------------------------------------------------------------------ *)

let test_starved_budget_spills () =
  (* The starved columns above only guarantee parity; this cell pins
     that the 1 KiB budget actually exercised the disk path on the
     2827-state identity space — runs written, bytes accounted, and the
     omission bound still tiny. *)
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let ex = SnapDiff.exact ~cfg ~wiring ~inputs () in
  let st =
    SnapDiff.fp ~ram_budget_bytes:1024 ~batch_states:64 ~cfg ~wiring ~inputs ()
  in
  SnapDiff.check_counts "starved identity" ex st;
  Alcotest.(check bool) "spill runs written" true (st.SnapDiff.E.fp_runs > 0);
  Alcotest.(check bool)
    "spill bytes accounted" true
    (st.SnapDiff.E.fp_bytes_spilled > 8 * st.SnapDiff.E.fp_runs)

let test_sweep_agreement () =
  (* check_all_wirings_fp vs check_all_wirings, field by field, on the
     full n=2 sweep (both input assignments).  The fp sweep proves
     safety only, so wait-freedom is the one column with no
     counterpart. *)
  let cfg = Snap.standard ~n:2 in
  let module E = SnapDiff.E in
  List.iter
    (fun inputs ->
      let invariant = Core.snapshot_invariant cfg inputs in
      let exact =
        match E.check_all_wirings ~invariant ~cfg ~inputs () with
        | Ok s -> s
        | Error e -> Alcotest.failf "exact sweep failed: %s" e
      in
      let fp =
        match E.check_all_wirings_fp ~invariant ~cfg ~inputs () with
        | Ok s -> s
        | Error e -> Alcotest.failf "fp sweep failed: %s" e
      in
      let module X = Modelcheck.Explorer in
      Alcotest.(check int) "wirings" exact.X.wirings_checked fp.X.fp_wirings;
      Alcotest.(check int) "total states" exact.X.total_states
        fp.X.fp_total_states;
      Alcotest.(check int) "max space" exact.X.max_space_states
        fp.X.fp_max_space_states;
      Alcotest.(check int) "total transitions" exact.X.total_transitions
        fp.X.fp_total_transitions;
      Alcotest.(check int) "terminals" exact.X.terminal_states
        fp.X.fp_terminal_states;
      Alcotest.(check bool)
        (Fmt.str "sweep union bound %g < 1e-12" fp.X.fp_omission_bound)
        true
        (fp.X.fp_omission_bound < 1e-12))
    [ [| 1; 2 |]; [| 1; 1 |] ]

let test_core_fp_parity () =
  (* The Core-level entry point: fp summary equals the exact engine's
     summary on the standard n=2 verification. *)
  let exact =
    match Core.verify_snapshot_model ~n:2 () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let fp =
    match Core.verify_snapshot_model_fp ~n:2 () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let module X = Modelcheck.Explorer in
  Alcotest.(check int) "core totals" exact.X.total_states fp.X.fp_total_states;
  Alcotest.(check int) "core transitions" exact.X.total_transitions
    fp.X.fp_total_transitions

(* ------------------------------------------------------------------ *)
(* Planted bugs: counterexamples out of a set with no parents.        *)
(* ------------------------------------------------------------------ *)

let no_output_invariant cfg (st : SnapDiff.E.state) =
  if Array.exists (fun l -> Snap.output cfg l <> None) st.SnapDiff.E.locals then
    Error "planted: someone terminated"
  else Ok ()

let test_planted_counterexample () =
  (* The fingerprint set stores no parent links; the engine rebuilds the
     witness with an exact re-exploration.  The trace must replay to a
     violating state and be minimal (equal to the exact BFS length) —
     under the default and the starved budget, reduced and not. *)
  let cfg = Snap.standard ~n:2 in
  let module E = SnapDiff.E in
  List.iter
    (fun wiring ->
      List.iter
        (fun (reduction, inputs, budget) ->
          let invariant = no_output_invariant cfg in
          let seq_len =
            match E.explore ~invariant ~reduction ~cfg ~wiring ~inputs () with
            | E.Invariant_failed (_, v) -> List.length v.E.trace
            | _ -> Alcotest.fail "exact BFS missed the planted bug"
          in
          match
            E.explore_fp ~invariant ~reduction ?ram_budget_bytes:budget
              ?batch_states:(Option.map (fun _ -> 64) budget)
              ~cfg ~wiring ~inputs ()
          with
          | E.Fp_invariant_failed { trace; message; _ } ->
              Alcotest.(check bool) "planted message" true
                (String.length message > 0);
              Alcotest.(check int)
                (Fmt.str "minimal length (reduction=%b)" reduction)
                seq_len (List.length trace);
              let final =
                SnapDiff.Replay.final ~cfg ~wiring ~inputs (List.map fst trace)
              in
              (match invariant final with
              | Error _ -> ()
              | Ok () ->
                  Alcotest.fail "fp trace replays to a non-violating state")
          | _ -> Alcotest.failf "fp engine missed the planted bug")
        [
          (false, [| 1; 2 |], None);
          (false, [| 1; 2 |], Some 1024);
          (true, [| 1; 1 |], None);
        ])
    wirings2

(* ------------------------------------------------------------------ *)
(* The bare set vs a Hashtbl oracle (QCheck).                         *)
(* ------------------------------------------------------------------ *)

(* The spill accounting every reachable set satisfies: spills happen
   exactly at the 3/4-load threshold, and each run file is its 8-byte
   payload plus 24 bytes of framing. *)
let spill_accounting_holds t =
  let threshold = Fp.capacity t * 3 / 4 in
  let spilled = Fp.cardinal t - Fp.resident t in
  spilled = Fp.spilled_runs t * threshold
  && Fp.spill_bytes t = (24 * Fp.spilled_runs t) + (8 * spilled)
  && Fp.resident t <= threshold

let prop_fp_set_model =
  (* Random batch scripts against an exact oracle under a 1 KiB budget
     (a 96-fingerprint tier): add_batch must flag exactly the first
     global occurrence of each key, across RAM probes, mid-batch spills
     and sorted-run merges alike, and the spill accounting must hold
     after every batch.  Keys come from a 300-key pool, so in-batch and
     cross-batch duplicates are common and a script spills up to three
     times.  A false negative here is a hash collision between short
     ASCII keys — probability ~ 1e-16 per run. *)
  QCheck.Test.make ~name:"fingerprint set vs Hashtbl oracle (1 KiB budget)"
    ~count:qcheck_count
    QCheck.(
      list_of_size
        Gen.(1 -- 8)
        (list_of_size Gen.(0 -- 80) (map (Printf.sprintf "k%d") (0 -- 299))))
    (fun batches ->
      let t = Fp.create ~ram_budget_bytes:1024 () in
      let seen = Hashtbl.create 64 in
      let ok =
        List.for_all
          (fun batch ->
            let arr = Array.of_list batch in
            let fresh = Fp.add_batch t arr in
            let expect =
              Array.map
                (fun k ->
                  if Hashtbl.mem seen k then false
                  else begin
                    Hashtbl.add seen k ();
                    true
                  end)
                arr
            in
            fresh = expect && spill_accounting_holds t)
          batches
      in
      let ok = ok && Fp.cardinal t = Hashtbl.length seen in
      Fp.close t;
      ok)

let prop_page_entry_matches_add_batch =
  (* The page entry and [add_batch] share one probe path: one key stream
     of 4-byte keys, driven through [add_page] on one set and through
     [add_batch] on another, must give the same fresh flags and leave
     both sets with the same cardinal and spill layout after every batch.
     The page entry returns the fresh keys compacted in arrival order;
     since a fresh key is always its first arrival in the batch, matching
     them against the batch in order recovers its flags. *)
  QCheck.Test.make ~name:"page entry = add_batch (1 KiB budget)"
    ~count:qcheck_count
    QCheck.(
      list_of_size
        Gen.(1 -- 8)
        (list_of_size Gen.(0 -- 80) (map (Printf.sprintf "k%03d") (0 -- 299))))
    (fun batches ->
      let by_page = Fp.create ~ram_budget_bytes:1024 () in
      let by_batch = Fp.create ~ram_budget_bytes:1024 () in
      let ok =
        List.for_all
          (fun batch ->
            let keys = Array.of_list batch in
            let page = Bytes.of_string (String.concat "" batch) in
            let fresh =
              Fp.add_page by_page page ~width:4 ~count:(Array.length keys)
            in
            let expect = Fp.add_batch by_batch keys in
            let j = ref 0 in
            let flags =
              Array.map
                (fun k ->
                  let hit =
                    !j < fresh && Bytes.sub_string page (!j * 4) 4 = k
                  in
                  if hit then incr j;
                  hit)
                keys
            in
            flags = expect && !j = fresh
            && Fp.cardinal by_page = Fp.cardinal by_batch
            && Fp.spilled_runs by_page = Fp.spilled_runs by_batch
            && Fp.spill_bytes by_page = Fp.spill_bytes by_batch)
          batches
      in
      Fp.close by_page;
      Fp.close by_batch;
      ok)

let fresh_dir () =
  let dir = Filename.temp_file "fpset" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_live_runs_reverified () =
  (* Runs are re-verified on every probe pass of a live set, not only on
     resume: a flipped payload byte must fail the next batch that has to
     consult the runs, before it admits anything; restoring the bytes
     lets the very same batch through. *)
  let dir = fresh_dir () in
  let t = Fp.create ~ram_budget_bytes:1024 ~dir () in
  ignore (Fp.add_batch t (Array.init 200 (Printf.sprintf "old-%d")));
  Alcotest.(check bool) "budget forced a spill" true (Fp.spilled_runs t > 0);
  let run0 = Filename.concat dir "run-0.fpr" in
  let img = read_file run0 in
  let flipped = Bytes.of_string img in
  Bytes.set flipped 20 (Char.chr (Char.code (Bytes.get flipped 20) lxor 0x01));
  write_file run0 (Bytes.to_string flipped);
  let batch = Array.init 10 (Printf.sprintf "new-%d") in
  let before = Fp.cardinal t in
  (match Fp.add_batch t batch with
  | exception Modelcheck.Checkpoint.Corrupt_checkpoint _ -> ()
  | _ -> Alcotest.fail "a corrupted run must fail the next probe pass");
  Alcotest.(check int) "nothing admitted" before (Fp.cardinal t);
  write_file run0 img;
  Alcotest.(check bool) "restored run lets the batch through" true
    (Array.for_all Fun.id (Fp.add_batch t batch));
  Alcotest.(check int) "batch admitted" (before + 10) (Fp.cardinal t);
  Fp.close t;
  Unix.rmdir dir

let test_fused_pass_checks_every_byte () =
  (* Merging a batch against a run and verifying the run are one pass.
     It must walk the run to its last word even when every candidate of
     the batch sorts before that word, and compare the trailer after the
     walk: a flipped bit in either place fails the batch before it admits
     anything. *)
  let dir = fresh_dir () in
  let t = Fp.create ~ram_budget_bytes:1024 ~dir () in
  ignore (Fp.add_batch t (Array.init 200 (Printf.sprintf "old-%d")));
  Alcotest.(check bool) "budget forced a spill" true (Fp.spilled_runs t > 0);
  let run0 = Filename.concat dir "run-0.fpr" in
  let img = read_file run0 in
  let count = (String.length img - 24) / 8 in
  let last_word = 16 + (8 * (count - 1)) in
  let last = String.get_int64_le img last_word in
  let rec below i acc =
    if List.length acc = 10 then Array.of_list acc
    else
      let k = Printf.sprintf "new-%d" i in
      if Int64.unsigned_compare (Fp.fingerprint k) last < 0 then
        below (i + 1) (k :: acc)
      else below (i + 1) acc
  in
  let batch = below 0 [] in
  let before = Fp.cardinal t in
  List.iter
    (fun (what, off) ->
      let flipped = Bytes.of_string img in
      Bytes.set flipped off
        (Char.chr (Char.code (Bytes.get flipped off) lxor 0x01));
      write_file run0 (Bytes.to_string flipped);
      (match Fp.add_batch t batch with
      | exception Modelcheck.Checkpoint.Corrupt_checkpoint _ -> ()
      | _ -> Alcotest.failf "a flipped bit in the %s must fail the batch" what);
      Alcotest.(check int) (what ^ ": nothing admitted") before (Fp.cardinal t);
      write_file run0 img)
    [ ("last payload word", last_word); ("trailer", 16 + (8 * count)) ];
  Alcotest.(check bool) "restored run lets the batch through" true
    (Array.for_all Fun.id (Fp.add_batch t batch));
  Fp.close t;
  Unix.rmdir dir

(* Open descriptors of this process, or [None] off Linux. *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

let test_unreadable_run_closes_its_channel () =
  (* A directory where a run should be: opening it succeeds, reading it
     fails.  Every probe must fail as a corrupt run and close what it
     opened. *)
  let dir = fresh_dir () in
  let t = Fp.create ~ram_budget_bytes:1024 ~dir () in
  ignore (Fp.add_batch t (Array.init 200 (Printf.sprintf "old-%d")));
  let run0 = Filename.concat dir "run-0.fpr" in
  Sys.remove run0;
  Unix.mkdir run0 0o700;
  let before = open_fds () in
  for i = 1 to 200 do
    match Fp.add_batch t [| Printf.sprintf "probe-%d" i |] with
    | exception Modelcheck.Checkpoint.Corrupt_checkpoint _ -> ()
    | _ -> Alcotest.failf "probe %d: a directory run must be refused" i
  done;
  Alcotest.(check (option int)) "no descriptor leaked" before (open_fds ());
  Unix.rmdir run0;
  Fp.close t;
  Unix.rmdir dir

let test_failed_spill_cleans_up () =
  (* A non-empty directory where the first run must go makes the spill's
     rename fail: the error surfaces, the channel is closed and no
     [.tmp] file is left behind, however often it is retried. *)
  let dir = fresh_dir () in
  let t = Fp.create ~ram_budget_bytes:1024 ~dir () in
  let run0 = Filename.concat dir "run-0.fpr" in
  Unix.mkdir run0 0o700;
  write_file (Filename.concat run0 "occupied") "";
  (* 96 keys fill the 128-slot tier to its spill threshold *)
  ignore (Fp.add_batch t (Array.init 96 (Printf.sprintf "old-%d")));
  Alcotest.(check int) "tier at its threshold, no run yet" 0
    (Fp.spilled_runs t);
  let before = open_fds () in
  for i = 1 to 50 do
    match Fp.add_batch t [| Printf.sprintf "spill-%d" i |] with
    | exception Sys_error _ -> ()
    | _ -> Alcotest.failf "spill %d: the rename onto a directory must fail" i
  done;
  Alcotest.(check (option int)) "no descriptor leaked" before (open_fds ());
  Alcotest.(check bool) "no .tmp left behind" false
    (Sys.file_exists (run0 ^ ".tmp"));
  Sys.remove (Filename.concat run0 "occupied");
  Unix.rmdir run0;
  Fp.close t;
  Unix.rmdir dir

(* Sections of a 1 KiB-budget set holding 200 keys: two runs of 96 and
   8 resident fingerprints. *)
let with_sections f =
  let dir = fresh_dir () in
  let t = Fp.create ~ram_budget_bytes:1024 ~dir () in
  ignore (Fp.add_batch t (Array.init 200 (Printf.sprintf "key-%d")));
  Fun.protect
    ~finally:(fun () ->
      Fp.close t;
      Unix.rmdir dir)
    (fun () -> f ~dir (Fp.to_sections t))

let replace tag b sections =
  List.map (fun (k, v) -> if k = tag then (k, b) else (k, v)) sections

let with_meta f sections =
  let meta =
    Modelcheck.Checkpoint.ints_of_bytes
      (Modelcheck.Checkpoint.find "fp_meta" sections)
  in
  f meta;
  replace "fp_meta" (Modelcheck.Checkpoint.bytes_of_ints meta) sections

let with_ram f sections =
  let ram = Bytes.copy (Modelcheck.Checkpoint.find "fp_ram" sections) in
  f ram;
  replace "fp_ram" ram sections

let refused ~sub ~dir sections =
  match Fp.of_sections ~ram_budget_bytes:1024 ~dir sections with
  | exception Modelcheck.Checkpoint.Corrupt_checkpoint msg ->
      let found =
        let n = String.length sub and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Printf.sprintf "%S names %S" msg sub) true found
  | t ->
      Fp.close ~keep_runs:true t;
      Alcotest.failf "sections with a bad %s must be refused" sub

let test_sections_capacity_refused () =
  (* A checksum-valid capacity other than the one the budget gives: a
     huge one must not reach the allocator, a smaller power of two must
     not silently shrink the tier. *)
  with_sections (fun ~dir sections ->
      Alcotest.(check int) "1 KiB budget, 128 slots" 128
        (Modelcheck.Checkpoint.ints_of_bytes
           (Modelcheck.Checkpoint.find "fp_meta" sections)).(0);
      refused ~sub:"capacity" ~dir
        (with_meta (fun m -> m.(0) <- 1 lsl 58) sections);
      refused ~sub:"capacity" ~dir (with_meta (fun m -> m.(0) <- 64) sections))

let test_sections_total_below_resident_refused () =
  with_sections (fun ~dir sections ->
      refused ~sub:"resident" ~dir
        (with_meta (fun m -> m.(2) <- m.(1) - 1) sections))

let test_sections_empty_marker_refused () =
  with_sections (fun ~dir sections ->
      refused ~sub:"empty marker" ~dir
        (with_ram (fun ram -> Bytes.fill ram 8 8 '\000') sections))

let test_sections_duplicate_refused () =
  with_sections (fun ~dir sections ->
      refused ~sub:"twice" ~dir
        (with_ram (fun ram -> Bytes.blit ram 0 ram 8 8) sections))

let test_fp_set_sections_roundtrip () =
  (* to_sections/of_sections must rebuild an equivalent set: same
     cardinal, same spill manifest, and every previously-added key is
     still a duplicate afterwards. *)
  let dir = fresh_dir () in
  let t = Fp.create ~ram_budget_bytes:1024 ~dir () in
  let keys = Array.init 500 (Printf.sprintf "key-%04d") in
  let fresh = Fp.add_batch t keys in
  Alcotest.(check bool) "all initially fresh" true
    (Array.for_all Fun.id fresh);
  Alcotest.(check bool) "budget forced a spill" true (Fp.spilled_runs t > 0);
  let sections = Fp.to_sections t in
  let t' = Fp.of_sections ~ram_budget_bytes:1024 ~dir sections in
  Alcotest.(check int) "cardinal preserved" (Fp.cardinal t) (Fp.cardinal t');
  Alcotest.(check int) "runs preserved" (Fp.spilled_runs t)
    (Fp.spilled_runs t');
  let again = Fp.add_batch t' keys in
  Alcotest.(check bool) "no key re-admitted after reload" true
    (Array.for_all not again);
  Fp.close ~keep_runs:true t;
  Fp.close t';
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (* Missing run files must fail the rebuild, not silently admit states. *)
  let dir2 = fresh_dir () in
  (match Fp.of_sections ~ram_budget_bytes:1024 ~dir:dir2 sections with
  | exception Modelcheck.Checkpoint.Corrupt_checkpoint _ -> ()
  | _ -> Alcotest.fail "of_sections with missing runs must raise");
  try Unix.rmdir dir2 with Unix.Unix_error _ -> ()

let test_fingerprint_function () =
  let fp = Fp.fingerprint in
  Alcotest.(check bool) "deterministic" true (fp "abc" = fp "abc");
  Alcotest.(check bool) "distinct keys, distinct fps" true
    (fp "abc" <> fp "abd" && fp "" <> fp "\x00" && fp "a" <> fp "aa");
  (* The zero fingerprint is reserved as the empty-slot marker. *)
  let nonzero = ref true in
  for i = 0 to 9999 do
    if fp (Printf.sprintf "probe-%d" i) = 0L then nonzero := false
  done;
  Alcotest.(check bool) "no zero fingerprints" true !nonzero

let test_oversized_budget_refused () =
  (* The tier is one string: a budget past the largest one must be a
     named error from [create], not a bare [Bytes.create] failure. *)
  match Fp.create ~ram_budget_bytes:(Fp.max_ram_budget_bytes + 1) () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names Fingerprint_set.create" msg)
        true
        (String.starts_with ~prefix:"Fingerprint_set.create" msg)
  | t ->
      Fp.close t;
      Alcotest.fail "an oversized budget must be refused"

let () =
  Alcotest.run "fingerprint"
    [
      ( "differential",
        [
          Alcotest.test_case "snapshot n=2, all wirings x inputs" `Quick
            test_snapshot_n2_matrix;
          Alcotest.test_case "snapshot n=3, level-bounded" `Quick
            test_snapshot_n3_bounded;
          Alcotest.test_case "write-scan (cyclic spaces)" `Quick
            test_write_scan_matrix;
          Alcotest.test_case "double-collect" `Quick test_double_collect_matrix;
          Alcotest.test_case "consensus, ts-bounded" `Quick
            test_consensus_bounded_matrix;
          Alcotest.test_case "renaming" `Quick test_renaming_matrix;
        ] );
      ( "spill",
        [
          Alcotest.test_case "starved budget engages the disk path" `Quick
            test_starved_budget_spills;
          Alcotest.test_case "sections round-trip" `Quick
            test_fp_set_sections_roundtrip;
          Alcotest.test_case "live set re-verifies its runs" `Quick
            test_live_runs_reverified;
          Alcotest.test_case "the fused pass checks every byte" `Quick
            test_fused_pass_checks_every_byte;
          Alcotest.test_case "an unreadable run closes its channel" `Quick
            test_unreadable_run_closes_its_channel;
          Alcotest.test_case "a failed spill cleans up" `Quick
            test_failed_spill_cleans_up;
        ] );
      ( "sections",
        [
          Alcotest.test_case "capacity must match the budget" `Quick
            test_sections_capacity_refused;
          Alcotest.test_case "total below resident" `Quick
            test_sections_total_below_resident_refused;
          Alcotest.test_case "empty marker in the RAM section" `Quick
            test_sections_empty_marker_refused;
          Alcotest.test_case "duplicate in the RAM section" `Quick
            test_sections_duplicate_refused;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "fp sweep = exact sweep, field by field" `Quick
            test_sweep_agreement;
          Alcotest.test_case "Core fp entry point parity" `Quick
            test_core_fp_parity;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "planted bug: minimal replayable witness" `Quick
            test_planted_counterexample;
        ] );
      ( "set",
        [
          QCheck_alcotest.to_alcotest prop_fp_set_model;
          QCheck_alcotest.to_alcotest prop_page_entry_matches_add_batch;
          Alcotest.test_case "fingerprint function basics" `Quick
            test_fingerprint_function;
          Alcotest.test_case "oversized budget refused" `Quick
            test_oversized_budget_refused;
        ] );
    ]
