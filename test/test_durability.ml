(* Durability suite: checkpoint/resume, run journals, resource governors.

   The property that matters end-to-end is crash-equivalence: a verification
   run that is killed at an arbitrary point and resumed must produce results
   identical to an uninterrupted run — same verdicts, same state counts,
   byte-identical feasibility JSON.  The tests below drive that property at
   every layer: the checkpoint container (torn writes must preserve the
   previous image), the journal (torn tails must heal), the State_table
   serialization (QCheck round-trips + corruption refusal), each engine
   (BFS, DFS, fault, packed — interrupted by a deterministic quota governor
   and resumed to exact parity), the mutex sweep in [Core], and the
   feasibility map with crash points fuzzed across every journal append. *)

module Ckpt = Modelcheck.Checkpoint
module Gov = Modelcheck.Governor
module St = Modelcheck.State_table
module Pv = Modelcheck.State_table.Packed_vec
module J = Runtime_shm.Journal
module F = Analysis.Feasibility

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> int_of_string s
  | None -> 200

(* A fresh path that does not exist yet (temp_file creates the file, and
   an existing-but-empty checkpoint must be rejected, not resumed). *)
let fresh_path suffix =
  let f = Filename.temp_file "durability" suffix in
  Sys.remove f;
  f

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Checkpoint container                                                *)
(* ------------------------------------------------------------------ *)

let sections_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (t1, p1) (t2, p2) -> t1 = t2 && Bytes.equal p1 p2)
       a b

let sample_sections () =
  [
    ("context", Bytes.of_string "bfs|21|w|false");
    ("table", Bytes.of_string (String.init 257 (fun i -> Char.chr (i land 0xff))));
    ("counters", Ckpt.bytes_of_ints [| 7; 0; max_int; 42 |]);
    ("empty", Bytes.create 0);
  ]

let test_ckpt_roundtrip () =
  let s = sample_sections () in
  Alcotest.(check bool)
    "to_bytes/of_bytes round-trip" true
    (sections_equal s (Ckpt.of_bytes (Ckpt.to_bytes s)));
  let path = fresh_path ".ckpt" in
  Ckpt.save ~path s;
  Alcotest.(check string)
    "save writes exactly to_bytes"
    (Bytes.to_string (Ckpt.to_bytes s))
    (read_file path);
  Alcotest.(check bool)
    "save/load round-trip" true
    (sections_equal s (Ckpt.load ~path));
  Alcotest.(check bool)
    "no tmp litter" false
    (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let expect_corrupt f =
  match f () with
  | exception Ckpt.Corrupt_checkpoint _ -> ()
  | _ -> Alcotest.fail "expected Corrupt_checkpoint"

let test_ckpt_corruption () =
  let path = fresh_path ".ckpt" in
  Ckpt.save ~path (sample_sections ());
  let img = read_file path in
  (* flip one payload byte *)
  let flipped = Bytes.of_string img in
  let off = String.length img - 3 in
  Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0x40));
  write_file path (Bytes.to_string flipped);
  expect_corrupt (fun () -> Ckpt.load ~path);
  (* truncate at every boundary class: header, mid-section, mid-payload *)
  List.iter
    (fun keep ->
      write_file path (String.sub img 0 keep);
      expect_corrupt (fun () -> Ckpt.load ~path))
    [ 0; 4; 11; String.length img / 2; String.length img - 1 ];
  (* bad magic *)
  write_file path ("XXXXXXXX" ^ String.sub img 8 (String.length img - 8));
  expect_corrupt (fun () -> Ckpt.load ~path);
  Sys.remove path;
  expect_corrupt (fun () -> Ckpt.find "absent" (sample_sections ()));
  expect_corrupt (fun () -> Ckpt.ints_of_bytes (Bytes.create 7))

let test_ckpt_every_bit_checked () =
  (* Every one of the 512 bits of a 64-byte payload feeds the checksum —
     bit 63 of each word included, which an [Int64.to_int] fold of whole
     words would drop. *)
  let payload =
    Ckpt.bytes_of_ints
      [| 0; 1; -1; min_int; max_int; 0x1555_5555_5555_5555; 42; -42 |]
  in
  let img = Ckpt.to_bytes [ ("bits", payload) ] in
  let poff = Bytes.length img - Bytes.length payload in
  for bit = 0 to (8 * Bytes.length payload) - 1 do
    let bad = Bytes.copy img in
    let i = poff + (bit / 8) in
    Bytes.set bad i
      (Char.chr (Char.code (Bytes.get bad i) lxor (1 lsl (bit mod 8))));
    match Ckpt.of_bytes bad with
    | exception Ckpt.Corrupt_checkpoint _ -> ()
    | _ -> Alcotest.failf "flipping payload bit %d went unnoticed" bit
  done

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec at i = i + n <= l && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_ckpt_old_version () =
  (* A well-formed image under an older version header is refused by
     version, not by a misleading engine-level context mismatch. *)
  let img = Ckpt.to_bytes (sample_sections ()) in
  Bytes.blit_string "ANONCKP2" 0 img 0 8;
  match Ckpt.of_bytes img with
  | exception Ckpt.Corrupt_checkpoint msg ->
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S mentions %S" msg sub)
            true (contains ~sub msg))
        [ "version 2"; "version 3"; "without --resume" ]
  | _ -> Alcotest.fail "v2 checkpoint accepted"

(* The offsets, last first, at which [Ckpt.frame] hands over a piece. *)
let piece_boundaries sections =
  let offsets = ref [ 0 ] in
  Ckpt.frame (fun _ len -> offsets := (List.hd !offsets + len) :: !offsets)
    sections;
  !offsets

let test_ckpt_torn_write_preserves_old () =
  (* Tear the save at every piece boundary of the new image (file
     header, section header, payload) and one byte either side of it:
     the tmp file must hold exactly that prefix of the [to_bytes] stream,
     and the previous image must still load. *)
  let path = fresh_path ".ckpt" in
  let v1 = [ ("gen", Ckpt.bytes_of_ints [| 1 |]) ] in
  let v2 = sample_sections () in
  let image = Bytes.to_string (Ckpt.to_bytes v2) in
  let total = String.length image in
  let boundaries =
    piece_boundaries (List.map (fun (tag, b) -> (tag, Ckpt.Raw b)) v2)
  in
  let cuts =
    List.sort_uniq compare
      (List.concat_map
         (fun b -> List.filter (fun k -> k >= 0 && k <= total) [ b - 1; b; b + 1 ])
         boundaries)
  in
  Ckpt.save ~path v1;
  List.iter
    (fun k ->
      Ckpt.set_torn_write (Some k);
      (match Ckpt.save ~path v2 with
      | exception Ckpt.Simulated_crash -> ()
      | () -> Alcotest.failf "torn write at byte %d must raise" k);
      Alcotest.(check string)
        (Printf.sprintf "torn at byte %d: tmp holds the stream prefix" k)
        (String.sub image 0 k)
        (read_file (path ^ ".tmp"));
      Alcotest.(check bool)
        (Printf.sprintf "torn at byte %d: previous checkpoint intact" k)
        true
        (sections_equal v1 (Ckpt.load ~path)))
    cuts;
  (* the hook disarms itself: the retry succeeds *)
  Ckpt.save ~path v2;
  Alcotest.(check bool)
    "retry lands v2" true
    (sections_equal v2 (Ckpt.load ~path));
  Sys.remove path

(* Int-prefix payloads stream through a scratch buffer; the file must be
   the [to_bytes] image of the same sections built with [bytes_of_ints]. *)
let int_payload_cases () =
  let big = Array.init 20_000 (fun i -> (i * 0x1E37_79B9_7F4A_7C15) lxor (i lsl 33)) in
  [
    ("signs", [| -1; min_int; max_int; 0; 1 lsl 32; (1 lsl 40) + 7; -(1 lsl 35) |], 7);
    ("empty", [| 1; 2; 3 |], 0);
    ("prefix", [| 10; -20; 30; -40; 50 |], 3);
    ("big", big, Array.length big - 5);
  ]

let streamed cases =
  ("context", Ckpt.Raw (Bytes.of_string "packed|2|5"))
  :: List.map (fun (tag, a, len) -> (tag, Ckpt.Ints (a, len))) cases

let materialized cases =
  ("context", Bytes.of_string "packed|2|5")
  :: List.map (fun (tag, a, len) -> (tag, Ckpt.bytes_of_ints ~len a)) cases

let test_ckpt_streamed_ints () =
  let cases = int_payload_cases () in
  let path = fresh_path ".ckpt" in
  Ckpt.write ~path (streamed cases);
  Alcotest.(check string)
    "int-prefix sections write the bytes_of_ints image"
    (Bytes.to_string (Ckpt.to_bytes (materialized cases)))
    (read_file path);
  let loaded = Ckpt.load ~path in
  List.iter
    (fun (tag, a, len) ->
      Alcotest.(check (array int))
        (tag ^ ": load then ints_of_bytes gives the prefix back")
        (Array.sub a 0 len)
        (Ckpt.ints_of_bytes (Ckpt.find tag loaded)))
    cases;
  Sys.remove path

let test_ckpt_streamed_torn_write () =
  (* The torn-write test on a streamed int payload of 160 KB, larger
     than the scratch buffer it passes through: cut at every piece
     boundary [frame] hands over (scratch-buffer chunks included) and at
     every 4 KiB step of the payload, one byte either side too. *)
  let cases = [ List.nth (int_payload_cases ()) 3 ] in
  let image = Bytes.to_string (Ckpt.to_bytes (materialized cases)) in
  let total = String.length image in
  let boundaries = piece_boundaries (streamed cases) in
  let _, _, len = List.hd cases in
  let payload_start = total - (8 * len) in
  let steps =
    List.init ((total - payload_start) / 4096) (fun j ->
        payload_start + (4096 * (j + 1)))
  in
  let cuts =
    List.sort_uniq compare
      (List.concat_map
         (fun b -> List.filter (fun k -> k >= 0 && k <= total) [ b - 1; b; b + 1 ])
         (boundaries @ steps))
  in
  let path = fresh_path ".ckpt" in
  let v1 = [ ("gen", Ckpt.bytes_of_ints [| 1 |]) ] in
  Ckpt.save ~path v1;
  List.iter
    (fun k ->
      Ckpt.set_torn_write (Some k);
      (match Ckpt.write ~path (streamed cases) with
      | exception Ckpt.Simulated_crash -> ()
      | () -> Alcotest.failf "torn write at byte %d must raise" k);
      let tmp = read_file (path ^ ".tmp") in
      if not (String.equal tmp (String.sub image 0 k)) then
        Alcotest.failf "torn at byte %d: tmp is not the stream prefix" k;
      if not (sections_equal v1 (Ckpt.load ~path)) then
        Alcotest.failf "torn at byte %d: previous checkpoint lost" k)
    cuts;
  Ckpt.write ~path (streamed cases);
  Alcotest.(check string) "retry lands the image" image (read_file path);
  Sys.remove path

let test_ints_roundtrip () =
  let a = [| 0; 1; 255; 65_536; max_int; 4_611_686_018_427_387_903 |] in
  Alcotest.(check (array int))
    "bytes_of_ints round-trip" a
    (Ckpt.ints_of_bytes (Ckpt.bytes_of_ints a))

(* ------------------------------------------------------------------ *)
(* Governor                                                            *)
(* ------------------------------------------------------------------ *)

let reason = Alcotest.testable Gov.pp_reason ( = )

let test_governor_quota () =
  let g = Gov.create ~quota:5 () in
  for i = 1 to 5 do
    Alcotest.(check (option reason))
      (Printf.sprintf "tick %d within quota" i)
      None (Gov.tick g)
  done;
  Alcotest.(check (option reason)) "tick 6 trips" (Some Gov.Quota) (Gov.tick g);
  Alcotest.(check (option reason)) "sticky" (Some Gov.Quota) (Gov.tick g);
  Alcotest.(check (option reason)) "tripped" (Some Gov.Quota) (Gov.tripped g)

let test_governor_wall_zero () =
  let g = Gov.create ~wall_seconds:0.0 () in
  Alcotest.(check (option reason))
    "zero wall budget trips on first tick" (Some Gov.Wall_clock) (Gov.tick g)

(* The heap is polled on tick 1 and every 4,096 ticks after; a
   [Gc] alarm at the end of a major cycle would come gigabytes late on
   a multi-GiB heap. *)
let test_governor_heap_polled () =
  let g = Gov.create ~heap_words:1 () in
  Alcotest.(check (option reason))
    "an exceeded heap budget trips on the first tick" (Some Gov.Heap)
    (Gov.tick g);
  let g = Gov.create ~heap_words:max_int () in
  for _ = 1 to 10_000 do
    if Gov.tick g <> None then Alcotest.fail "an unreachable budget tripped"
  done

let test_governor_interrupt_shared () =
  let flag = Atomic.make false in
  let g1 = Gov.create ~interrupted_flag:flag () in
  let g2 = Gov.create ~interrupted_flag:flag () in
  Alcotest.(check (option reason)) "g1 clean" None (Gov.tick g1);
  Atomic.set flag true;
  Alcotest.(check (option reason))
    "g1 interrupted" (Some Gov.Interrupted) (Gov.tick g1);
  Alcotest.(check (option reason))
    "g2 shares the flag" (Some Gov.Interrupted) (Gov.tick g2);
  Alcotest.(check bool) "interrupted observable" true (Gov.interrupted g1);
  let g3 = Gov.create () in
  Gov.interrupt g3;
  Alcotest.(check (option reason))
    "private interrupt" (Some Gov.Interrupted) (Gov.tick g3)

(* A stoppable view reports its stop to itself alone; a pooled sweep
   stops a worker whose wiring lies past the first failure.  Wiring 0
   fails only once wiring 1's check is running, and wiring 1 ticks until
   its governor stops it, which only that failure can do. *)
let test_governor_stoppable () =
  let g = Gov.create () in
  let stop = Atomic.make false in
  let v = Gov.stoppable g (fun () -> Atomic.get stop) in
  Alcotest.(check (option reason)) "running" None (Gov.tick v);
  Atomic.set stop true;
  Alcotest.(check (option reason)) "stopped" (Some Gov.Interrupted) (Gov.tick v);
  Alcotest.(check (option reason)) "the base ticks on" None (Gov.tick g);
  Alcotest.(check (option reason)) "nothing tripped" None (Gov.tripped g);
  let wirings = Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true in
  let w0 = List.hd wirings in
  let running = Atomic.make false and stopped = Atomic.make false in
  let result =
    Modelcheck.Wiring_sweep.run ~domains:2 ~governor:g ~wirings ~n:2 ~m:2
      ~init:0 ~add:( + ) (fun ~governor ~resume:_ ~ckpt_extra:_ w ->
        if w == w0 then begin
          while not (Atomic.get running) do Domain.cpu_relax () done;
          Error "wiring 0 fails"
        end
        else begin
          Atomic.set running true;
          let gov = Option.get governor in
          while Gov.tick gov = None do Domain.cpu_relax () done;
          Atomic.set stopped true;
          Error "wiring 1 stopped"
        end)
  in
  Alcotest.(check (result int (pair int string)))
    "the first failure in order" (Error (0, "wiring 0 fails")) result;
  Alcotest.(check bool) "the worker past it stopped" true (Atomic.get stopped);
  Alcotest.(check (option reason)) "the caller's governor untripped" None
    (Gov.tripped g)

let test_reason_strings () =
  List.iter
    (fun r ->
      Alcotest.(check (option reason))
        (Gov.reason_to_string r) (Some r)
        (Gov.reason_of_string (Gov.reason_to_string r)))
    [ Gov.Wall_clock; Gov.Heap; Gov.Quota; Gov.Interrupted ];
  Alcotest.(check (option reason))
    "unknown string" None
    (Gov.reason_of_string "bogus")

(* ------------------------------------------------------------------ *)
(* State_table / Packed_vec serialization (satellite 3)                *)
(* ------------------------------------------------------------------ *)

let gen_key w = QCheck.Gen.(string_size ~gen:(char_range 'a' 'd') (return w))

let table_scenario =
  QCheck.make
    ~print:(fun (w, keys) ->
      Printf.sprintf "width=%d keys=[%s]" w (String.concat ";" keys))
    QCheck.Gen.(
      1 -- 8 >>= fun w ->
      list_size (0 -- 300) (gen_key w) >>= fun keys -> return (w, keys))

let table_roundtrip =
  QCheck.Test.make ~count:qcheck_count ~name:"State_table serialize round-trip"
    table_scenario (fun (w, keys) ->
      let t = St.create ~log2_slots:0 ~key_width:w () in
      List.iter (fun k -> ignore (St.intern t k)) keys;
      let t' = St.deserialize (St.serialize t) in
      St.length t' = St.length t
      && St.key_width t' = St.key_width t
      && List.for_all (fun k -> St.find t' k = St.find t k) keys
      && (St.length t = 0
         ||
         let ok = ref true in
         St.iter (fun id k -> ok := !ok && St.key_of_id t id = k) t';
         (* and interning continues where it left off *)
         let fresh = String.make w 'z' in
         !ok && St.intern t' fresh = St.length t)
      )

let test_table_corruption () =
  let t = St.create ~key_width:3 () in
  List.iter (fun k -> ignore (St.intern t k)) [ "abc"; "abd"; "xyz" ];
  let img = St.serialize t in
  (* flip one arena byte (past the 32-byte header) *)
  let bad = Bytes.copy img in
  Bytes.set bad 33 (Char.chr (Char.code (Bytes.get bad 33) lxor 1));
  expect_corrupt (fun () -> St.deserialize bad);
  (* torn image: every strict prefix must be refused *)
  List.iter
    (fun keep -> expect_corrupt (fun () -> St.deserialize (Bytes.sub img 0 keep)))
    [ 0; 8; 31; Bytes.length img - 1 ];
  (* bad magic *)
  let bad = Bytes.copy img in
  Bytes.set bad 0 '?';
  expect_corrupt (fun () -> St.deserialize bad)

let vec_scenario =
  QCheck.make
    ~print:(fun (stride, vals) ->
      Printf.sprintf "stride=%d n=%d" stride (List.length vals))
    QCheck.Gen.(
      1 -- 7 >>= fun stride ->
      let bound = (1 lsl (8 * min stride 7)) - 1 in
      list_size (0 -- 200) (0 -- min bound 1_000_000_000) >>= fun vals ->
      return (stride, vals))

let vec_roundtrip =
  QCheck.Test.make ~count:qcheck_count ~name:"Packed_vec serialize round-trip"
    vec_scenario (fun (stride, vals) ->
      let v = Pv.create ~stride () in
      List.iter (fun x -> ignore (Pv.push v x)) vals;
      let v' = Pv.deserialize (Pv.serialize v) in
      Pv.length v' = Pv.length v
      && Pv.stride v' = stride
      && List.for_all2
           (fun i x -> Pv.get v' i = x)
           (List.mapi (fun i _ -> i) vals)
           vals)

let test_vec_corruption () =
  let v = Pv.create ~stride:3 () in
  List.iter (fun x -> ignore (Pv.push v x)) [ 1; 500; 70_000 ];
  let img = Pv.serialize v in
  let bad = Bytes.copy img in
  let off = Bytes.length img - 1 in
  Bytes.set bad off (Char.chr (Char.code (Bytes.get bad off) lxor 0x10));
  expect_corrupt (fun () -> Pv.deserialize bad);
  expect_corrupt (fun () -> Pv.deserialize (Bytes.sub img 0 (Bytes.length img - 2)))

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  let path = fresh_path ".journal" in
  let jnl = J.create path in
  let payloads =
    [ "mutex 2 3 solved 5 1000"; "with \"quotes\" and \\ backslash"; "" ]
  in
  List.iter (J.append jnl) payloads;
  J.close jnl;
  Alcotest.(check (list string)) "load round-trip" payloads (J.load path);
  let jnl, recovered = J.open_append path in
  Alcotest.(check (list string)) "open_append recovers" payloads recovered;
  J.append jnl "leader 2 2 solved 2 213";
  J.close jnl;
  Alcotest.(check (list string))
    "append after reopen" (payloads @ [ "leader 2 2 solved 2 213" ])
    (J.load path);
  Alcotest.check_raises "newline rejected"
    (Invalid_argument "Journal.append: payload contains a newline")
    (fun () -> J.append (J.create path) "a\nb");
  Sys.remove path

let test_journal_torn_tail () =
  let path = fresh_path ".journal" in
  let jnl = J.create path in
  J.append jnl "cell one";
  J.append jnl "cell two";
  J.close jnl;
  (* simulate a crash mid-append: half a line at the tail *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"seq\": 2, \"crc\": 123";
  close_out oc;
  Alcotest.(check (list string))
    "torn tail dropped" [ "cell one"; "cell two" ] (J.load path);
  let jnl, recovered = J.open_append path in
  Alcotest.(check (list string))
    "heal keeps valid prefix" [ "cell one"; "cell two" ] recovered;
  J.append jnl "cell three";
  J.close jnl;
  Alcotest.(check (list string))
    "healed file appends cleanly"
    [ "cell one"; "cell two"; "cell three" ]
    (J.load path);
  (* a corrupted middle line truncates the valid prefix there *)
  let lines = String.split_on_char '\n' (read_file path) in
  let mangled =
    List.mapi
      (fun i l ->
        if i = 1 then String.map (function '2' -> '3' | c -> c) l else l)
      lines
  in
  write_file path (String.concat "\n" mangled);
  Alcotest.(check (list string))
    "damage cuts the prefix" [ "cell one" ] (J.load path);
  Sys.remove path

let test_journal_crash_hook () =
  let path = fresh_path ".journal" in
  J.set_crash_after (Some 2);
  let jnl = J.create path in
  J.append jnl "first";
  (match J.append jnl "second" with
  | exception J.Simulated_crash -> ()
  | () -> Alcotest.fail "armed journal append must crash");
  Alcotest.(check (list string))
    "torn line invisible" [ "first" ] (J.load path);
  (* recovery heals and the hook stays disarmed *)
  let jnl, recovered = J.open_append path in
  Alcotest.(check (list string)) "recovered" [ "first" ] recovered;
  J.append jnl "second";
  J.close jnl;
  Alcotest.(check (list string)) "redo lands" [ "first"; "second" ] (J.load path);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Feasibility cell codec                                              *)
(* ------------------------------------------------------------------ *)

let test_cell_codec () =
  let grids = F.grids ~quick:true () in
  let floor_of, coprime_of = F.grid_params grids in
  let statuses =
    [
      F.Solved { wirings = 5; states = 123_456 };
      F.Safety_broken "p1 and p2 both acquired name 3";
      F.Deadlock "processors p1, p2 spin forever";
      F.Unknown { reason = "heap"; states = 100_000; checkpoint = None };
      F.Unknown { reason = "wall-clock"; states = 42; checkpoint = None };
      F.Unknown
        {
          reason = "quota";
          states = 7;
          checkpoint = Some "/tmp/ck/mutex-2-3.ckpt";
        };
    ]
  in
  List.iter
    (fun status ->
      let c =
        {
          F.task = "mutex";
          n = 2;
          m = 3;
          expectation = F.Clean;
          status;
        }
      in
      match F.cell_of_record ~floor_of ~coprime_of (F.cell_to_record c) with
      | None -> Alcotest.failf "codec lost %s" (F.cell_to_record c)
      | Some c' ->
          Alcotest.(check string)
            ("codec round-trip: " ^ F.status_keyword status)
            (F.cell_to_record c) (F.cell_to_record c');
          Alcotest.(check bool)
            "expectation re-derived" true
            (c'.F.expectation = c.F.expectation))
    statuses;
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        ("rejects: " ^ bad) true
        (F.cell_of_record ~floor_of ~coprime_of bad = None))
    [
      "";
      "mutex";
      "mutex x 3 solved 1 2";
      "mutex 2 3 nonsense";
      "mutex 2 3 solved 1";
      (* an older journal's state-limit line: dropped, so the cell is
         recomputed *)
      "mutex 2 3 resource-limit 5";
    ]

(* ------------------------------------------------------------------ *)
(* Engine kill-and-resume parity                                       *)
(* ------------------------------------------------------------------ *)

(* Drive an engine closure to completion through repeated small-quota
   interruptions, resuming from its checkpoint each round.  [step] gets a
   fresh governor and must return [Ok v] on completion and [Error ()] on
   exhaustion.  The quota makes interruption points deterministic and
   scattered across the whole exploration. *)
let drive ~quota step =
  let rec go rounds =
    if rounds > 10_000 then Alcotest.fail "resume loop did not converge"
    else
      match step (Gov.create ~quota ()) with
      | Ok v -> (v, rounds)
      | Error () -> go (rounds + 1)
  in
  go 0

(* A sweep error that a governor caused, which a resume continues. *)
let is_exhausted e = String.length e >= 9 && String.sub e 0 9 = "exhausted"

module Snap_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Snapshot)

let test_bfs_resume_parity () =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let reference =
    match Snap_mc.explore ~cfg ~wiring ~inputs () with
    | Snap_mc.Explored sp ->
        (Snap_mc.state_count sp, Snap_mc.transition_count sp,
         List.length sp.Snap_mc.terminal)
    | _ -> Alcotest.fail "reference run must complete"
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 25 } in
  let (result, rounds) =
    drive ~quota:60 (fun g ->
        match
          Snap_mc.explore ~governor:g ~ckpt ~resume:true ~cfg ~wiring ~inputs ()
        with
        | Snap_mc.Explored sp ->
            Ok
              (Snap_mc.state_count sp, Snap_mc.transition_count sp,
               List.length sp.Snap_mc.terminal)
        | Snap_mc.Exhausted _ -> Error ()
        | _ -> Alcotest.fail "unexpected BFS verdict")
  in
  Alcotest.(check bool) "BFS was actually interrupted" true (rounds > 0);
  Alcotest.(check (triple int int int))
    "BFS resume parity" reference result;
  if Sys.file_exists path then Sys.remove path

(* Distinct inputs give the identity group, which [~reduction:true]
   explores unreduced; its checkpoints still record the requested flag,
   so a reduced run interrupted by a quota resumes to the uninterrupted
   counts, reduced or not, and its context still reads [|true|]. *)
let test_identity_group_resume_parity () =
  let module Nm = Core.Naming_mc in
  let cfg = Algorithms.Naming.cfg ~n:2 ~m:3 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:3 in
  let inputs = [| 1; 2 |] in
  let counts = function
    | Nm.Explored sp -> Ok (Nm.state_count sp, Nm.transition_count sp)
    | Nm.Exhausted _ -> Error ()
    | _ -> Alcotest.fail "unexpected naming BFS verdict"
  in
  let reference reduction =
    match counts (Nm.explore ~reduction ~cfg ~wiring ~inputs ()) with
    | Ok c -> c
    | Error () -> Alcotest.fail "reference run must complete"
  in
  Alcotest.(check (pair int int))
    "identity group: reduced = unreduced" (reference false) (reference true);
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 100 } in
  let contexts = ref [] in
  let result, rounds =
    drive ~quota:300 (fun g ->
        let r =
          counts
            (Nm.explore ~reduction:true ~governor:g ~ckpt ~resume:true ~cfg
               ~wiring ~inputs ())
        in
        if Result.is_error r then
          contexts :=
            Bytes.to_string (Ckpt.find "context" (Ckpt.load ~path))
            :: !contexts;
        r)
  in
  Alcotest.(check bool) "reduced BFS was actually interrupted" true (rounds > 0);
  Alcotest.(check (pair int int))
    "identity group: resumed = uninterrupted" (reference true) result;
  List.iter
    (fun ctx ->
      Alcotest.(check bool)
        (Printf.sprintf "context %S records the requested flag" ctx)
        true (contains ~sub:"|true|" ctx))
    !contexts;
  if Sys.file_exists path then Sys.remove path

(* Resumed frames rebuild their decoded state from the checkpointed key;
   under reduction that key is canonical, so the reduced variant checks
   frames whose state is not the concrete successor the DFS pushed.  The
   depth counters are compared too: they ride in the checkpoint. *)
let test_dfs_resume_parity ~reduction ~inputs () =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let counts (s : Snap_mc.dfs_stats) =
    ( (s.Snap_mc.dfs_states, s.Snap_mc.dfs_transitions),
      (s.Snap_mc.dfs_terminals, s.Snap_mc.dfs_max_depth) )
  in
  let reference =
    match Snap_mc.check_exhaustive ~reduction ~cfg ~wiring ~inputs () with
    | Snap_mc.Dfs_ok s -> counts s
    | _ -> Alcotest.fail "reference DFS must complete"
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 25 } in
  let (result, rounds) =
    drive ~quota:60 (fun g ->
        match
          Snap_mc.check_exhaustive ~governor:g ~ckpt ~resume:true ~reduction
            ~cfg ~wiring ~inputs ()
        with
        | Snap_mc.Dfs_ok s -> Ok (counts s)
        | Snap_mc.Dfs_exhausted _ -> Error ()
        | _ -> Alcotest.fail "unexpected DFS verdict")
  in
  Alcotest.(check bool) "DFS was actually interrupted" true (rounds > 0);
  Alcotest.(check (pair (pair int int) (pair int int)))
    "DFS resume parity (states, transitions), (terminals, max depth)"
    reference result;
  if Sys.file_exists path then Sys.remove path

(* The fingerprint engine's checkpoints carry the RAM tier, the spill-run
   manifest and the frontier halves; spill runs live next to the
   checkpoint.  An interrupted-and-resumed run must agree with an
   uninterrupted run on every deterministic field — states, transitions,
   terminals and the omission bound.  The spill *layout* (run count and
   bytes) is not deterministic across interrupt patterns: each resume
   re-batches the frontier, so only engagement of the disk path is
   asserted, not its shape. *)

let rm_rf_runs dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_fp_resume_parity () =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let deterministic (s : Snap_mc.fp_stats) =
    ( (s.Snap_mc.fp_states, s.Snap_mc.fp_transitions, s.Snap_mc.fp_terminals),
      s.Snap_mc.fp_bound )
  in
  let reference =
    match
      Snap_mc.explore_fp ~ram_budget_bytes:1024 ~batch_states:32 ~cfg ~wiring
        ~inputs ()
    with
    | Snap_mc.Fp_explored s ->
        Alcotest.(check bool)
          "reference run spilled" true
          (s.Snap_mc.fp_runs > 0);
        deterministic s
    | _ -> Alcotest.fail "reference fp run must complete"
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 25 } in
  let (result, rounds) =
    drive ~quota:60 (fun g ->
        match
          Snap_mc.explore_fp ~governor:g ~ckpt ~resume:true
            ~ram_budget_bytes:1024 ~batch_states:32 ~cfg ~wiring ~inputs ()
        with
        | Snap_mc.Fp_explored s ->
            Alcotest.(check bool)
              "resumed run used the disk path" true
              (s.Snap_mc.fp_runs > 0);
            Ok (deterministic s)
        | Snap_mc.Fp_exhausted _ -> Error ()
        | _ -> Alcotest.fail "unexpected fp verdict")
  in
  Alcotest.(check bool) "fp was actually interrupted" true (rounds > 0);
  Alcotest.(check (pair (triple int int int) (float 0.)))
    "fp resume parity (deterministic fields)" reference result;
  if Sys.file_exists path then Sys.remove path;
  rm_rf_runs (path ^ ".runs")

let test_fp_corrupt_run_refused () =
  (* Spill runs are pinned by the checkpoint manifest and re-verified on
     every resume: a flipped payload byte or a truncated tail must raise
     Corrupt_checkpoint, and restoring the original bytes must let the
     very same resume complete. *)
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let path = fresh_path ".ckpt" in
  let runs_dir = path ^ ".runs" in
  let ckpt = { Ckpt.path; every_states = 25 } in
  let g = Gov.create ~quota:400 () in
  (match
     Snap_mc.explore_fp ~governor:g ~ckpt ~ram_budget_bytes:1024
       ~batch_states:32 ~cfg ~wiring ~inputs ()
   with
  | Snap_mc.Fp_exhausted _ -> ()
  | _ -> Alcotest.fail "quota 400 must interrupt the 2827-state space");
  let run0 = Filename.concat runs_dir "run-0.fpr" in
  Alcotest.(check bool) "a spill run exists on disk" true (Sys.file_exists run0);
  let img = read_file run0 in
  let resume () =
    ignore
      (Snap_mc.explore_fp ~ckpt ~resume:true ~ram_budget_bytes:1024
         ~batch_states:32 ~cfg ~wiring ~inputs ())
  in
  (* flip one payload byte (the header is 16 bytes) *)
  let flipped = Bytes.of_string img in
  Bytes.set flipped 20 (Char.chr (Char.code (Bytes.get flipped 20) lxor 0x01));
  write_file run0 (Bytes.to_string flipped);
  expect_corrupt resume;
  (* truncated tail *)
  write_file run0 (String.sub img 0 (String.length img - 8));
  expect_corrupt resume;
  (* a run under the older format version is refused by name *)
  write_file run0 ("FPRUN001" ^ String.sub img 8 (String.length img - 8));
  (match resume () with
  | exception Ckpt.Corrupt_checkpoint msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S names both formats" msg)
        true
        (contains ~sub:"FPRUN001" msg && contains ~sub:"FPRUN002" msg)
  | () -> Alcotest.fail "an FPRUN001 run must be refused");
  (* restored bytes: the same resume runs to completion *)
  write_file run0 img;
  (match
     Snap_mc.explore_fp ~ckpt ~resume:true ~ram_budget_bytes:1024
       ~batch_states:32 ~cfg ~wiring ~inputs ()
   with
  | Snap_mc.Fp_explored _ -> ()
  | _ -> Alcotest.fail "restored run must resume to completion");
  if Sys.file_exists path then Sys.remove path;
  rm_rf_runs runs_dir

let test_fp_sweep_resume_parity () =
  (* Sweep-level: the accumulated fp summary (including the float
     omission bound, which travels as two 32-bit halves of its IEEE
     image) must survive any number of quota interruptions bitwise. *)
  let reference =
    match Core.verify_snapshot_model_fp ~n:2 ~ram_budget_bytes:1024 () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 25 } in
  let (result, rounds) =
    drive ~quota:150 (fun g ->
        match
          Core.verify_snapshot_model_fp ~n:2 ~ram_budget_bytes:1024 ~governor:g
            ~ckpt ~resume:true ()
        with
        | Ok s -> Ok s
        | Error e -> if is_exhausted e then Error () else Alcotest.fail e)
  in
  let module X = Modelcheck.Explorer in
  Alcotest.(check bool) "fp sweep was actually interrupted" true (rounds > 0);
  Alcotest.(check int) "wirings" reference.X.fp_wirings result.X.fp_wirings;
  Alcotest.(check int) "states" reference.X.fp_total_states
    result.X.fp_total_states;
  Alcotest.(check int) "transitions" reference.X.fp_total_transitions
    result.X.fp_total_transitions;
  Alcotest.(check int) "terminals" reference.X.fp_terminal_states
    result.X.fp_terminal_states;
  Alcotest.(check (float 0.))
    "omission bound survives the float codec" reference.X.fp_omission_bound
    result.X.fp_omission_bound;
  if Sys.file_exists path then Sys.remove path;
  rm_rf_runs (path ^ ".runs")

let test_fault_resume_parity () =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let counts sp =
    ( Snap_mc.state_count sp,
      Snap_mc.transition_count sp,
      Snap_mc.crash_transitions sp )
  in
  let reference =
    match Snap_mc.explore ~max_crashes:1 ~cfg ~wiring ~inputs () with
    | Snap_mc.Explored sp -> counts sp
    | _ -> Alcotest.fail "reference fault run must complete"
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 40 } in
  let (result, rounds) =
    drive ~quota:100 (fun g ->
        match
          Snap_mc.explore ~max_crashes:1 ~governor:g ~ckpt ~resume:true ~cfg
            ~wiring ~inputs ()
        with
        | Snap_mc.Explored sp -> Ok (counts sp)
        | Snap_mc.Exhausted _ -> Error ()
        | _ -> Alcotest.fail "unexpected fault verdict")
  in
  Alcotest.(check bool) "fault run was actually interrupted" true (rounds > 0);
  Alcotest.(check (triple int int int)) "fault resume parity" reference result;
  if Sys.file_exists path then Sys.remove path

(* The crash search once kept its own checkpoint format: a "fault|..."
   context over a table of mask-byte keys, packed parent words and a
   counter section.  Built here from a genuine crash checkpoint's table
   and parents, such an image differs from a current one only in its
   context and sections.  A resume must refuse it as corrupt, leave the
   file as it was, and neither resume from it nor start over. *)
let test_fault_checkpoint_refused () =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 0 } in
  let g = Gov.create ~quota:100 () in
  (match
     Snap_mc.explore ~max_crashes:1 ~governor:g ~ckpt ~cfg ~wiring ~inputs ()
   with
  | Snap_mc.Exhausted _ -> ()
  | _ -> Alcotest.fail "the quota must stop the crash search");
  let sections = Ckpt.load ~path in
  let length tag =
    Modelcheck.State_table.Packed_vec.length
      (Modelcheck.State_table.Packed_vec.deserialize (Ckpt.find tag sections))
  in
  (* the current crash image counts its transitions instead of storing
     edges *)
  let transitions =
    (Ckpt.find_ints ~who:"test" ~count:2 "counts" sections).(0)
  in
  let key0 =
    Snap_mc.encode_state cfg (Snap_mc.init_state ~cfg ~inputs) ^ "\000"
  in
  Ckpt.save ~path
    [
      ( "context",
        Bytes.of_string
          (Fmt.str "fault|%d|%d|%a|%b|%S" (String.length key0) 1
             Anonmem.Wiring.pp wiring false key0) );
      ("table", Ckpt.find "table" sections);
      ("parent", Ckpt.find "parent" sections);
      ( "counters",
        Ckpt.bytes_of_ints [| length "deg"; transitions; 0 |] );
    ];
  let image = read_file path in
  (match
     Snap_mc.explore ~max_crashes:1 ~ckpt ~resume:true ~cfg ~wiring ~inputs ()
   with
  | exception Ckpt.Corrupt_checkpoint _ -> ()
  | _ -> Alcotest.fail "a fault| checkpoint must be refused");
  Alcotest.(check string) "refused image left as it was" image (read_file path);
  Sys.remove path

module Packed = Modelcheck.Rt_mutex_packed

(* With [~every_states:1] every loop iteration saves, so each prefix of
   the engine's key vector is written, and every [quota] steps a round
   ends and the next one restores from the latest save.  One workspace
   serves all rounds, as in a wiring sweep. *)
let packed_drive ?(ws = Packed.ws ()) ~every_states ~cfg ~wiring ~inputs
    ~quota ~path () =
  let ckpt = { Ckpt.path; every_states } in
  drive ~quota (fun g ->
      match
        Packed.check_wiring ~ws ~governor:g ~ckpt ~resume:true ~cfg ~wiring
          ~inputs ()
      with
      | Packed.Exhausted _ -> Error ()
      | v -> Ok v)

let test_packed_resume_clean_parity ~every_states ~quota () =
  let cfg = Algorithms.Rt_mutex.cfg ~n:2 ~m:3 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:3 in
  let inputs = [| 1; 2 |] in
  let reference =
    match Packed.check_wiring ~cfg ~wiring ~inputs () with
    | Packed.Clean { states; _ } -> states
    | _ -> Alcotest.fail "reference packed (2,3) must be clean"
  in
  let path = fresh_path ".ckpt" in
  let (v, rounds) =
    packed_drive ~every_states ~cfg ~wiring ~inputs ~quota ~path ()
  in
  Alcotest.(check bool) "packed was actually interrupted" true (rounds > 0);
  (match v with
  | Packed.Clean { states; _ } ->
      Alcotest.(check int) "packed clean state parity" reference states
  | _ -> Alcotest.fail "resumed packed (2,3) must be clean");
  if Sys.file_exists path then Sys.remove path

let test_packed_resume_cycle_parity ~every_states ~quota () =
  (* (2,2) is non-coprime: the verdict must survive interruption too *)
  let cfg = Algorithms.Rt_mutex.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let reference = Packed.check_wiring ~cfg ~wiring ~inputs () in
  (match reference with
  | Packed.Fair_cycle -> ()
  | _ -> Alcotest.fail "reference packed (2,2) must deadlock");
  let path = fresh_path ".ckpt" in
  let (v, _) = packed_drive ~every_states ~cfg ~wiring ~inputs ~quota ~path () in
  (match v with
  | Packed.Fair_cycle -> ()
  | _ -> Alcotest.fail "resumed packed (2,2) must still deadlock");
  if Sys.file_exists path then Sys.remove path

let packed_verdict = function
  | Packed.Clean { states } -> Printf.sprintf "Clean %d" states
  | Packed.Breach -> "Breach"
  | Packed.Fair_cycle -> "Fair_cycle"
  | Packed.Exhausted { reason; states } ->
      Printf.sprintf "Exhausted (%s, %d)" (Gov.reason_to_string reason) states
  | Packed.Unsupported -> "Unsupported"

(* One workspace driven through every way a run ends must answer each
   wiring exactly as a fresh one does.  A breach trips on a key the
   table already holds but the Tarjan vectors never got; a deadlock and
   a governor stop leave half-explored spaces behind; then
   every (2,5) class runs on what is left, and a checkpointed run is
   interrupted and resumed on the same workspace.  Each run goes twice
   on the reused workspace, so the second meets whatever the first left
   of the same space. *)
let test_packed_ws_reuse () =
  let ws = Packed.ws () in
  let run ?quota ~n ~m wiring =
    let cfg = Algorithms.Rt_mutex.cfg ~n ~m in
    let inputs = Array.init n (fun i -> i + 1) in
    let go ws =
      let governor = Option.map (fun quota -> Gov.create ~quota ()) quota in
      Packed.check_wiring ?ws ?governor ~cfg ~wiring ~inputs ()
    in
    let fresh = go None in
    for round = 1 to 2 do
      Alcotest.(check string)
        (Fmt.str "(%d,%d) %a, round %d: reused workspace = fresh" n m
           Anonmem.Wiring.pp wiring round)
        (packed_verdict fresh) (packed_verdict (go (Some ws)))
    done;
    fresh
  in
  let sweep_until ~n ~m want =
    let found =
      List.exists
        (fun w -> run ~n ~m w = want)
        (Anonmem.Wiring.enumerate_classes ~n ~m)
    in
    Alcotest.(check bool)
      (Printf.sprintf "(%d,%d) has a %s wiring" n m (packed_verdict want))
      true found
  in
  sweep_until ~n:2 ~m:1 Packed.Breach;
  sweep_until ~n:2 ~m:4 Packed.Fair_cycle;
  let classes = Anonmem.Wiring.enumerate_classes ~n:2 ~m:5 in
  let w = List.nth classes (List.length classes / 2) in
  (match run ~quota:1500 ~n:2 ~m:5 w with
  | Packed.Exhausted _ -> ()
  | v -> Alcotest.failf "governed run: want Exhausted, got %s" (packed_verdict v));
  List.iter (fun w -> ignore (run ~n:2 ~m:5 w)) classes;
  let cfg = Algorithms.Rt_mutex.cfg ~n:2 ~m:5 in
  let inputs = [| 1; 2 |] in
  let reference = Packed.check_wiring ~cfg ~wiring:w ~inputs () in
  let path = fresh_path ".ckpt" in
  let v, rounds =
    packed_drive ~ws ~every_states:500 ~cfg ~wiring:w ~inputs ~quota:3000
      ~path ()
  in
  Alcotest.(check bool) "resume was interrupted" true (rounds > 0);
  Alcotest.(check string) "resume on a reused workspace = fresh"
    (packed_verdict reference) (packed_verdict v);
  if Sys.file_exists path then Sys.remove path

(* The trip-save path of each exhaustive engine, one row per engine:
   with [every_states = 0] no periodic save is ever due, so the file a
   tripped quota governor leaves is the final image alone.  It must
   exist, carry the engine's context, and resume (without a governor) to
   the counts of an uninterrupted run. *)
type trip_row = {
  engine : string;
  context_prefix : string;
  quota : int;
  run :
    ?governor:Gov.t -> ?ckpt:Ckpt.policy -> resume:bool -> unit -> string option;
      (** [None] when the governor tripped, else the run's counts *)
}

let trip_rows =
  let cfg = Algorithms.Snapshot.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  let mutex_cfg = Algorithms.Rt_mutex.cfg ~n:2 ~m:3 in
  let mutex_wiring = Anonmem.Wiring.identity ~n:2 ~m:3 in
  [
    {
      engine = "Explorer.explore";
      context_prefix = "bfs|";
      quota = 200;
      run =
        (fun ?governor ?ckpt ~resume () ->
          match
            Snap_mc.explore ?governor ?ckpt ~resume ~cfg ~wiring ~inputs ()
          with
          | Snap_mc.Explored sp ->
              Some
                (Printf.sprintf "%d states, %d transitions, %d terminal"
                   (Snap_mc.state_count sp) (Snap_mc.transition_count sp)
                   (List.length sp.Snap_mc.terminal))
          | Snap_mc.Exhausted _ -> None
          | _ -> Alcotest.fail "unexpected BFS verdict");
    };
    {
      engine = "Explorer.check_exhaustive";
      context_prefix = "dfs|";
      quota = 1_000;
      run =
        (fun ?governor ?ckpt ~resume () ->
          match
            Snap_mc.check_exhaustive ?governor ?ckpt ~resume ~cfg ~wiring
              ~inputs ()
          with
          | Snap_mc.Dfs_ok s ->
              Some
                (Printf.sprintf
                   "%d states, %d transitions, %d terminal, depth %d"
                   s.Snap_mc.dfs_states s.Snap_mc.dfs_transitions
                   s.Snap_mc.dfs_terminals s.Snap_mc.dfs_max_depth)
          | Snap_mc.Dfs_exhausted _ -> None
          | _ -> Alcotest.fail "unexpected DFS verdict");
    };
    {
      engine = "Explorer.explore_fp";
      context_prefix = "fpbfs|";
      quota = 1_000;
      run =
        (fun ?governor ?ckpt ~resume () ->
          match
            Snap_mc.explore_fp ?governor ?ckpt ~resume ~ram_budget_bytes:1024
              ~batch_states:32 ~cfg ~wiring ~inputs ()
          with
          | Snap_mc.Fp_explored s ->
              Some
                (Printf.sprintf "%d states, %d transitions, %d terminal, %h"
                   s.Snap_mc.fp_states s.Snap_mc.fp_transitions
                   s.Snap_mc.fp_terminals s.Snap_mc.fp_bound)
          | Snap_mc.Fp_exhausted _ -> None
          | _ -> Alcotest.fail "unexpected fingerprint verdict");
    };
    {
      engine = "Rt_mutex_packed.check_wiring";
      context_prefix = "packed|";
      quota = 2_000;
      run =
        (fun ?governor ?ckpt ~resume () ->
          match
            Packed.check_wiring ?governor ?ckpt ~resume ~cfg:mutex_cfg
              ~wiring:mutex_wiring ~inputs ()
          with
          | Packed.Exhausted _ -> None
          | v -> Some (packed_verdict v));
    };
    {
      engine = "Inductive.check_abstract";
      context_prefix = "inductive-abs|";
      quota = 200;
      run =
        (fun ?governor ?ckpt ~resume () ->
          let module I = Modelcheck.Inductive in
          match I.check_abstract ?governor ?ckpt ~resume ~n:2 I.proved with
          | I.Proved r ->
              Some
                (Printf.sprintf "proved: %d configurations, %d transitions"
                   r.I.r_universe r.I.r_transitions)
          | I.Refuted _ -> Alcotest.fail "the proved clauses must pass"
          | I.Gave_up _ -> None);
    };
  ]

let test_trip_save row () =
  let reference =
    match row.run ~resume:false () with
    | Some counts -> counts
    | None -> Alcotest.failf "%s: an ungoverned run cannot trip" row.engine
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 0 } in
  let g = Gov.create ~quota:row.quota () in
  let tripped = row.run ~governor:g ~ckpt ~resume:false () in
  Alcotest.(check (option string))
    (row.engine ^ ": the quota trips the run") None tripped;
  Alcotest.(check bool)
    (row.engine ^ ": the trip wrote the final image") true (Sys.file_exists path);
  let context = Bytes.to_string (Ckpt.find "context" (Ckpt.load ~path)) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: context %S" row.engine context)
    true
    (String.starts_with ~prefix:row.context_prefix context);
  Alcotest.(check (option string))
    (row.engine ^ ": resumed = uninterrupted") (Some reference)
    (row.run ~ckpt ~resume:true ());
  Ckpt.retire path;
  Alcotest.(check bool)
    (row.engine ^ ": retired with its runs") false
    (Sys.file_exists path || Sys.file_exists (Ckpt.runs_dir path))

(* [every_states = 0] means no periodic save for the induction too: a
   refuted check stops at its CTI cap without a trip or a save, so it
   leaves no file, while [every_states = 1] saves at every
   configuration. *)
let test_abstract_no_periodic_save () =
  let module I = Modelcheck.Inductive in
  let leaves every_states =
    let path = fresh_path ".ckpt" in
    (match
       I.check_abstract ~max_ctis:5 ~ckpt:{ Ckpt.path; every_states } ~n:2
         I.candidates
     with
    | I.Refuted r ->
        Alcotest.(check bool)
          "configurations were checked before the cap" true (r.I.r_universe > 1)
    | _ -> Alcotest.fail "the candidate clauses must be refuted");
    let left = Sys.file_exists path in
    Ckpt.retire path;
    left
  in
  Alcotest.(check bool) "every_states = 0 saves nothing" false (leaves 0);
  Alcotest.(check bool) "every_states = 1 saves" true (leaves 1)

(* A resumed induction checks each input class's Init obligation once:
   these clauses fail Init, and a run tripped at configuration 0, 1 or 5
   and resumed to completion reports the CTI count and Init verdict of
   an uninterrupted run. *)
let test_abstract_resume_init_once () =
  let module I = Modelcheck.Inductive in
  let clauses =
    match I.parse_clauses "own-input-in-view,reg-nonempty-ge:0" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let outcome = function
    | I.Proved r | I.Refuted r -> (r.I.r_cti_total, r.I.r_init_ok)
    | I.Gave_up _ -> Alcotest.fail "an ungoverned run cannot trip"
  in
  let reference = outcome (I.check_abstract ~n:2 clauses) in
  Alcotest.(check bool) "the clauses fail Init" false (snd reference);
  List.iter
    (fun quota ->
      let path = fresh_path ".ckpt" in
      let ckpt = { Ckpt.path; every_states = 0 } in
      let g = Gov.create ~quota () in
      (match I.check_abstract ~governor:g ~ckpt ~n:2 clauses with
      | I.Gave_up { processed; _ } ->
          Alcotest.(check int) "tripped where asked" quota processed
      | _ -> Alcotest.failf "quota %d must trip the run" quota);
      Alcotest.(check (pair int bool))
        (Printf.sprintf "resumed after a trip at %d" quota)
        reference
        (outcome (I.check_abstract ~ckpt ~resume:true ~n:2 clauses));
      Ckpt.retire path)
    [ 0; 1; 5 ]

let test_verify_mutex_sweep_resume () =
  let reference =
    match Core.verify_mutex ~n:2 ~m:3 () with
    | Core.Verified { wirings; states } -> (wirings, states)
    | v -> Alcotest.failf "reference sweep: %s" (Fmt.str "%a" Core.pp_verdict v)
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 100 } in
  let saw_checkpoint_path = ref false in
  let rec go rounds =
    if rounds > 10_000 then Alcotest.fail "sweep resume did not converge"
    else
      let g = Gov.create ~quota:400 () in
      let v =
        Core.verify_mutex ~n:2 ~m:3 ~governor:g ~ckpt ~resume:true
          ()
      in
      match v with
      | Core.Verified { wirings; states } -> ((wirings, states), rounds)
      | Core.Exhausted { checkpoint; _ } ->
          if checkpoint = Some path then saw_checkpoint_path := true;
          go (rounds + 1)
      | v -> Alcotest.failf "sweep: %s" (Fmt.str "%a" Core.pp_verdict v)
  in
  let (result, rounds) = go 0 in
  Alcotest.(check bool) "sweep was actually interrupted" true (rounds > 0);
  Alcotest.(check bool)
    "exhausted verdicts name the checkpoint" true !saw_checkpoint_path;
  Alcotest.(check (pair int int))
    "verify_mutex sweep resume parity" reference result;
  if Sys.file_exists path then Sys.remove path

let test_verify_mutex_sectionless_refused () =
  (* A packed checkpoint written outside a sweep has no "sweep" section.
     Resuming the sweep from it must refuse, as the snapshot sweeps do,
     not restart from wiring 0 and overwrite the file. *)
  let cfg = Algorithms.Rt_mutex.cfg ~n:2 ~m:3 in
  let wiring = List.hd (Anonmem.Wiring.enumerate ~n:2 ~m:3 ~fix_first:true) in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 100 } in
  let g = Gov.create ~quota:400 () in
  (match
     Packed.check_wiring ~governor:g ~ckpt ~cfg ~wiring ~inputs:[| 1; 2 |] ()
   with
  | Packed.Exhausted _ -> ()
  | _ -> Alcotest.fail "the quota must interrupt the first wiring");
  let image = read_file path in
  (match Core.verify_mutex ~n:2 ~m:3 ~ckpt ~resume:true () with
  | exception Ckpt.Corrupt_checkpoint _ -> ()
  | v -> Alcotest.failf "sweep resumed anyway: %a" Core.pp_verdict v);
  Alcotest.(check bool) "checkpoint left as it was" true
    (String.equal image (read_file path));
  Sys.remove path

let test_dfs_sweep_resume_parity () =
  (* The DFS "sweep" section: the summary accumulated over the wirings
     before the in-flight one must survive any number of quota
     interruptions, field by field. *)
  let reference =
    match Core.verify_snapshot_model ~n:2 () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 25 } in
  let (result, rounds) =
    drive ~quota:150 (fun g ->
        match
          Core.verify_snapshot_model ~n:2 ~governor:g ~ckpt ~resume:true ()
        with
        | Ok s -> Ok s
        | Error e -> if is_exhausted e then Error () else Alcotest.fail e)
  in
  let module X = Modelcheck.Explorer in
  Alcotest.(check bool) "DFS sweep was actually interrupted" true (rounds > 0);
  Alcotest.(check int) "wirings" reference.X.wirings_checked
    result.X.wirings_checked;
  Alcotest.(check int) "states" reference.X.total_states result.X.total_states;
  Alcotest.(check int) "max space" reference.X.max_space_states
    result.X.max_space_states;
  Alcotest.(check int) "transitions" reference.X.total_transitions
    result.X.total_transitions;
  Alcotest.(check int) "terminals" reference.X.terminal_states
    result.X.terminal_states;
  Alcotest.(check bool) "wait-free" reference.X.all_wait_free
    result.X.all_wait_free;
  if Sys.file_exists path then Sys.remove path

let test_crash_sweep_resume_parity () =
  (* The crash sweep's "crash_sweep" section: every quota trip inside
     [verify_snapshot_model_crashes ~ckpt] must leave the checkpoint,
     with the caller's extra section beside the position, and the
     resumed sweep must end on the uninterrupted totals. *)
  let reference =
    match Core.verify_snapshot_model_crashes ~n:2 ~max_crashes:2 () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 500 } in
  let ckpt_extra = [ ("report", Bytes.of_string "fault-free report") ] in
  let last_index = ref 0 in
  let result, rounds =
    drive ~quota:2000 (fun g ->
        match
          Core.verify_snapshot_model_crashes ~n:2 ~max_crashes:2 ~governor:g
            ~ckpt ~resume:true ~ckpt_extra ()
        with
        | Ok s -> Ok s
        | Error e when is_exhausted e ->
            Alcotest.(check bool) "the trip leaves the checkpoint" true
              (Sys.file_exists path);
            let sections = Ckpt.load ~path in
            Alcotest.(check string) "extra section rides along"
              "fault-free report"
              (Bytes.to_string (Ckpt.find "report" sections));
            last_index :=
              (Ckpt.ints_of_bytes (Ckpt.find "crash_sweep" sections)).(0);
            Error ()
        | Error e -> Alcotest.fail e)
  in
  let module X = Core.Snapshot_mc in
  Alcotest.(check bool) "crash sweep was actually interrupted" true
    (rounds > 0);
  Alcotest.(check int) "last trip inside the second wiring" 1 !last_index;
  Alcotest.(check int) "wirings" reference.X.wirings_checked
    result.X.wirings_checked;
  Alcotest.(check int) "states" reference.X.total_states result.X.total_states;
  Alcotest.(check int) "transitions" reference.X.total_transitions
    result.X.total_transitions;
  Alcotest.(check int) "crash branches" reference.X.total_crash_branches
    result.X.total_crash_branches;
  if Sys.file_exists path then Sys.remove path

let test_sweep_index_refused () =
  (* Each of the three sweep-section layouts, written with an index just
     outside the wiring list on either side, must be refused. *)
  let count ~m =
    List.length (Anonmem.Wiring.enumerate ~n:2 ~m ~fix_first:true)
  in
  let cases =
    [
      ( "DFS sweep", "sweep", 6, count ~m:2,
        fun ckpt -> ignore (Core.verify_snapshot_model ~n:2 ~ckpt ~resume:true ()) );
      ( "fp sweep", "fp_sweep", 9, count ~m:2,
        fun ckpt ->
          ignore
            (Core.verify_snapshot_model_fp ~n:2 ~ram_budget_bytes:1024 ~ckpt
               ~resume:true ()) );
      ( "packed mutex sweep", "sweep", 2, count ~m:3,
        fun ckpt ->
          ignore
            (Core.verify_mutex ~n:2 ~m:3 ~ckpt ~resume:true ()) );
    ]
  in
  List.iter
    (fun (label, tag, width, wirings, resume) ->
      List.iter
        (fun idx ->
          let path = fresh_path ".ckpt" in
          Ckpt.save ~path
            [ (tag, Ckpt.bytes_of_ints (Array.append [| idx |] (Array.make width 0))) ];
          (match resume { Ckpt.path; every_states = 100 } with
          | exception Ckpt.Corrupt_checkpoint _ -> ()
          | () -> Alcotest.failf "%s: index %d accepted" label idx);
          Sys.remove path)
        [ -1; wirings ])
    cases

(* A checkpoint written before the snapshot engine's cyclic cursor
   became a written-set holds other keys for the same states (cursor 2
   was the byte 2, the set {0,1} is the byte 3), although its initial
   key is the same (cursor 0 is the empty set).  Its context lacks the
   layout's name, so a resume refuses it as unusable — exit 5 at the
   CLI — instead of exploring a mixture of the two layouts. *)
let test_cursor_layout_refused () =
  let path = fresh_path ".ckpt" in
  let ckpt = { Ckpt.path; every_states = 100 } in
  (match
     Core.verify_snapshot_model ~n:2
       ~governor:(Gov.create ~quota:300 ())
       ~ckpt ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "the quota did not trip");
  let sections = Ckpt.load ~path in
  let context = Bytes.to_string (Ckpt.find "context" sections) in
  let suffix = "|written-set" in
  Alcotest.(check bool) "the context names the layout" true
    (String.ends_with ~suffix context);
  let parent =
    String.sub context 0 (String.length context - String.length suffix)
  in
  Ckpt.save ~path
    (("context", Bytes.of_string parent) :: List.remove_assoc "context" sections);
  (match Core.verify_snapshot_model ~n:2 ~ckpt ~resume:true () with
  | exception Ckpt.Corrupt_checkpoint msg ->
      Alcotest.(check bool) "refused as a context mismatch" true
        (contains ~sub:"context mismatch" msg)
  | _ -> Alcotest.fail "a cursor-layout image was resumed");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Map-level crash-resume differential                                 *)
(* ------------------------------------------------------------------ *)

(* A deterministic stand-in checker covering every status shape the
   journal must carry (Unknown is non-final, so resumed runs recompute it
   — determinism keeps the final map identical either way). *)
let stub ~task ~n ~m =
  match (String.length task + n + m) mod 4 with
  | 0 -> F.Solved { wirings = n * m; states = (n * 100) + m }
  | 1 -> F.Safety_broken (Printf.sprintf "%s breaks at %d %d" task n m)
  | 2 -> F.Deadlock "spin"
  | _ -> F.Unknown { reason = "quota"; states = n + m; checkpoint = None }

let run_map_with_journal path =
  let grids = F.grids ~quick:true () in
  let floor_of, coprime_of = F.grid_params grids in
  let jnl, recovered = J.open_append path in
  let cached_cells =
    List.filter_map (F.cell_of_record ~floor_of ~coprime_of) recovered
    |> List.filter (fun c -> F.status_final c.F.status)
  in
  let cached ~task ~n ~m =
    List.find_map
      (fun c ->
        if c.F.task = task && c.F.n = n && c.F.m = m then Some c.F.status
        else None)
      cached_cells
  in
  let cells =
    F.run ~cached
      ~on_fresh:(fun c -> J.append jnl (F.cell_to_record c))
      ~check:stub grids
  in
  J.close jnl;
  (cells, List.length cached_cells)

let test_map_crash_resume_identical () =
  let grids = F.grids ~quick:true () in
  let total = List.length (List.concat_map (fun g -> g.F.g_cells) grids) in
  let reference = F.to_json (F.run ~check:stub grids) in
  (* kill at every journal append point, then resume: the final JSON must
     be byte-identical to the uninterrupted run every time *)
  for kill_at = 1 to total do
    let path = fresh_path ".journal" in
    J.set_crash_after (Some kill_at);
    (match run_map_with_journal path with
    | exception J.Simulated_crash -> ()
    | _ -> Alcotest.failf "kill point %d did not fire" kill_at);
    J.set_crash_after None;
    let cells, replayed = run_map_with_journal path in
    Alcotest.(check bool)
      (Printf.sprintf "kill %d: resume replayed journal cells" kill_at)
      true
      (replayed <= kill_at - 1);
    Alcotest.(check string)
      (Printf.sprintf "kill %d: resumed map byte-identical" kill_at)
      reference (F.to_json cells);
    Sys.remove path
  done

let test_map_stop_skips_remaining () =
  let grids = F.grids ~quick:true () in
  let count = ref 0 in
  let cells =
    F.run
      ~stop:(fun () -> !count >= 3)
      ~on_cell:(fun _ -> incr count)
      ~check:stub grids
  in
  Alcotest.(check int) "stopped after 3 cells" 3 (List.length cells)

let () =
  Alcotest.run "durability"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_ckpt_roundtrip;
          Alcotest.test_case "corruption refused" `Quick test_ckpt_corruption;
          Alcotest.test_case "older format version refused" `Quick
            test_ckpt_old_version;
          Alcotest.test_case "every payload bit checked" `Quick
            test_ckpt_every_bit_checked;
          Alcotest.test_case "torn write preserves previous" `Quick
            test_ckpt_torn_write_preserves_old;
          Alcotest.test_case "int codec" `Quick test_ints_roundtrip;
          Alcotest.test_case "streamed int sections" `Quick
            test_ckpt_streamed_ints;
          Alcotest.test_case "torn streamed write" `Quick
            test_ckpt_streamed_torn_write;
          Alcotest.test_case "cursor-layout snapshot image refused" `Quick
            test_cursor_layout_refused;
        ] );
      ( "governor",
        [
          Alcotest.test_case "quota is exact and sticky" `Quick
            test_governor_quota;
          Alcotest.test_case "zero wall budget" `Quick test_governor_wall_zero;
          Alcotest.test_case "heap budget polled on ticks" `Quick
            test_governor_heap_polled;
          Alcotest.test_case "shared interrupt flag" `Quick
            test_governor_interrupt_shared;
          Alcotest.test_case "reason strings" `Quick test_reason_strings;
          Alcotest.test_case "stoppable view; pooled stop past a failure"
            `Quick test_governor_stoppable;
        ] );
      ( "state-table-serialization",
        [
          QCheck_alcotest.to_alcotest table_roundtrip;
          Alcotest.test_case "corrupt table refused" `Quick
            test_table_corruption;
          QCheck_alcotest.to_alcotest vec_roundtrip;
          Alcotest.test_case "corrupt vec refused" `Quick test_vec_corruption;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail heals" `Quick test_journal_torn_tail;
          Alcotest.test_case "crash hook" `Quick test_journal_crash_hook;
        ] );
      ( "cell-codec",
        [ Alcotest.test_case "record round-trip" `Quick test_cell_codec ] );
      ( "resume-parity",
        [
          Alcotest.test_case "BFS" `Quick test_bfs_resume_parity;
          Alcotest.test_case "DFS" `Quick
            (test_dfs_resume_parity ~reduction:false ~inputs:[| 1; 2 |]);
          Alcotest.test_case "DFS, reduced" `Quick
            (test_dfs_resume_parity ~reduction:true ~inputs:[| 1; 1 |]);
          Alcotest.test_case "BFS, reduced by the identity group" `Quick
            test_identity_group_resume_parity;
          Alcotest.test_case "fingerprint" `Quick test_fp_resume_parity;
          Alcotest.test_case "fingerprint corrupt run refused" `Quick
            test_fp_corrupt_run_refused;
          Alcotest.test_case "fingerprint sweep" `Quick
            test_fp_sweep_resume_parity;
          Alcotest.test_case "fault explorer" `Quick test_fault_resume_parity;
          Alcotest.test_case "fault| checkpoint refused" `Quick
            test_fault_checkpoint_refused;
          Alcotest.test_case "packed clean cell" `Quick
            (test_packed_resume_clean_parity ~every_states:50 ~quota:150);
          Alcotest.test_case "packed deadlock cell" `Quick
            (test_packed_resume_cycle_parity ~every_states:50 ~quota:40);
          (* A restore after every one of the clean cell's 4586 steps
             would re-insert the saved keys 4586 times; a restore every
             10th step keeps the test short. *)
          Alcotest.test_case "packed clean cell, save every tick" `Quick
            (test_packed_resume_clean_parity ~every_states:1 ~quota:10);
          Alcotest.test_case "packed deadlock cell, save every tick" `Quick
            (test_packed_resume_cycle_parity ~every_states:1 ~quota:1);
          Alcotest.test_case "packed workspace reuse" `Quick
            test_packed_ws_reuse;
          Alcotest.test_case "verify_mutex sweep" `Quick
            test_verify_mutex_sweep_resume;
          Alcotest.test_case "verify_mutex sweep needs its section" `Quick
            test_verify_mutex_sectionless_refused;
          Alcotest.test_case "DFS sweep" `Quick test_dfs_sweep_resume_parity;
          Alcotest.test_case "crash sweep" `Quick
            test_crash_sweep_resume_parity;
          Alcotest.test_case "sweep index outside the wiring list" `Quick
            test_sweep_index_refused;
        ] );
      ( "trip-save",
        List.map
          (fun row -> Alcotest.test_case row.engine `Quick (test_trip_save row))
          trip_rows
        @ [
            Alcotest.test_case "abstract every_states = 0: no periodic save"
              `Quick test_abstract_no_periodic_save;
            Alcotest.test_case "abstract resume checks Init once" `Quick
              test_abstract_resume_init_once;
          ] );
      ( "map-differential",
        [
          Alcotest.test_case "crash at every append point" `Quick
            test_map_crash_resume_identical;
          Alcotest.test_case "stop skips remaining cells" `Quick
            test_map_stop_skips_remaining;
        ] );
    ]
