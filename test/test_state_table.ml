(* Oracle-differential suite for the arena-backed visited table.

   State_table is the visited set of every exploration engine; a bug in it
   silently corrupts model-checking verdicts rather than crashing, so the
   table is held against an executable specification: a stdlib
   [(string, int) Hashtbl] assigning dense ids in insertion order.  The
   QCheck properties drive both through the same random operation
   sequences — duplicate-heavy key streams, absent probes, widths from 1
   to 12 — starting from the smallest legal slot array so every run
   crosses several growth boundaries, and demand identical membership,
   identical dense ids, and exact [key_of_id]/[iter] round-trips.  On top
   of that, deterministic unit tests pin down the adversarial cases
   randomness is unlikely to hit: seeded same-bucket (and same-tag)
   collision chains, duplicate interns across a resize, and the
   structured width/range errors.  [intern_bytes] is held to [intern] and
   the oracle through one reused, scribbled-over scratch buffer, and a
   probe-quality pin holds the word-wise hash to the byte-wise FNV-1a it
   replaced on real snapshot key streams.  The Packed_vec companion gets
   the same treatment against a plain [int array] model. *)

module St = Modelcheck.State_table
module Pv = Modelcheck.State_table.Packed_vec

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> int_of_string s
  | None -> 300

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Keys over a 4-letter alphabet so random streams are duplicate-heavy:
   at width <= 3 the universe has at most 64 keys, forcing re-interns. *)
let gen_key w = QCheck.Gen.(string_size ~gen:(char_range 'a' 'd') (return w))

let gen_scenario =
  QCheck.Gen.(
    1 -- 12 >>= fun w ->
    list_size (0 -- 400) (gen_key w) >>= fun inserts ->
    list_size (0 -- 100) (gen_key w) >>= fun probes ->
    return (w, inserts, probes))

let scenario =
  QCheck.make
    ~print:(fun (w, inserts, probes) ->
      Printf.sprintf "width=%d inserts=[%s] probes=[%s]" w
        (String.concat ";" inserts)
        (String.concat ";" probes))
    gen_scenario

(* ------------------------------------------------------------------ *)
(* QCheck: differential against the Hashtbl oracle                     *)
(* ------------------------------------------------------------------ *)

let run_against_oracle (w, inserts, probes) =
  let t = St.create ~log2_slots:0 ~key_width:w () in
  let oracle : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun k ->
      let expected =
        match Hashtbl.find_opt oracle k with
        | Some id -> id
        | None ->
            let id = Hashtbl.length oracle in
            Hashtbl.add oracle k id;
            order := k :: !order;
            id
      in
      let got = St.intern t k in
      if got <> expected then
        QCheck.Test.fail_reportf "intern %S: id %d, oracle %d" k got expected)
    inserts;
  (t, oracle, List.rev !order, probes)

let prop_membership_and_ids =
  QCheck.Test.make ~name:"same membership and dense ids as the oracle"
    ~count:qcheck_count scenario (fun sc ->
      let t, oracle, _, probes = run_against_oracle sc in
      St.length t = Hashtbl.length oracle
      && List.for_all
           (fun k ->
             St.find t k = Hashtbl.find_opt oracle k
             && St.mem t k = Hashtbl.mem oracle k)
           probes)

let prop_key_of_id_round_trip =
  QCheck.Test.make ~name:"key_of_id inverts every oracle id"
    ~count:qcheck_count scenario (fun sc ->
      let t, oracle, _, _ = run_against_oracle sc in
      Hashtbl.fold
        (fun k id acc -> acc && String.equal (St.key_of_id t id) k)
        oracle true)

let prop_iter_is_insertion_order =
  QCheck.Test.make ~name:"iter yields keys in insertion order"
    ~count:qcheck_count scenario (fun sc ->
      let t, _, order, _ = run_against_oracle sc in
      let seen = ref [] in
      St.iter (fun id k -> seen := (id, k) :: !seen) t;
      List.rev !seen = List.mapi (fun i k -> (i, k)) order)

let prop_load_factor =
  QCheck.Test.make ~name:"growth keeps load at or below 3/4"
    ~count:qcheck_count scenario (fun sc ->
      let t, _, _, _ = run_against_oracle sc in
      let cap = St.capacity t in
      cap land (cap - 1) = 0 && 4 * St.length t <= 3 * cap)

(* [intern_bytes] against both [intern] and the oracle, all through one
   reused scratch buffer that is scribbled over after every call: the
   table must copy a new key out of the buffer, never alias it. *)
let prop_intern_bytes_matches_intern =
  QCheck.Test.make ~name:"intern_bytes = intern = oracle, scratch reused"
    ~count:qcheck_count scenario (fun ((w, inserts, probes) as sc) ->
      let t, oracle, order, _ = run_against_oracle sc in
      let tb = St.create ~log2_slots:0 ~key_width:w () in
      let buf = Bytes.create w in
      List.iter
        (fun k ->
          Bytes.blit_string k 0 buf 0 w;
          let got = St.intern_bytes tb buf in
          Bytes.fill buf 0 w 'z';
          if got <> St.intern t k || got <> Hashtbl.find oracle k then
            QCheck.Test.fail_reportf "intern_bytes %S: id %d" k got)
        inserts;
      St.length tb = Hashtbl.length oracle
      && List.for_all
           (fun k -> St.find tb k = Hashtbl.find_opt oracle k)
           probes
      && List.for_all2
           (fun id k -> String.equal (St.key_of_id tb id) k)
           (List.init (List.length order) Fun.id)
           order)

(* ------------------------------------------------------------------ *)
(* Deterministic adversarial cases                                     *)
(* ------------------------------------------------------------------ *)

(* Enumerate distinct width-8 keys whose hash lands in [bucket] of a
   [cap]-slot table — the worst case for linear probing, and (since tags
   are only 8 bits) a stream guaranteed to contain same-tag collisions
   once it exceeds 256 keys' birthday bound. *)
let colliding_keys ~cap ~bucket count =
  let buf = Bytes.create 8 in
  let rec go i acc found =
    if found = count then List.rev acc
    else begin
      Bytes.set_int64_le buf 0 (Int64.of_int i);
      let k = Bytes.to_string buf in
      if St.hash k land (cap - 1) = bucket then go (i + 1) (k :: acc) (found + 1)
      else go (i + 1) acc found
    end
  in
  go 0 [] 0

let test_seeded_collisions () =
  let cap = 8 in
  let keys = colliding_keys ~cap ~bucket:3 40 in
  Alcotest.(check int) "40 colliding keys found" 40 (List.length keys);
  let t = St.create ~log2_slots:3 ~key_width:8 () in
  List.iteri
    (fun i k -> Alcotest.(check int) "dense id" i (St.intern t k))
    keys;
  List.iteri
    (fun i k ->
      Alcotest.(check (option int)) "find after collisions" (Some i) (St.find t k);
      Alcotest.(check string) "key_of_id after collisions" k (St.key_of_id t i))
    keys;
  (* A colliding key that was never inserted must still miss. *)
  let absent = List.nth (colliding_keys ~cap ~bucket:3 41) 40 in
  Alcotest.(check (option int)) "absent collider misses" None (St.find t absent)

let test_same_tag_collisions () =
  (* Force full hash-tag agreement: keys sharing both the bucket of the
     initial 8-slot table and the 8-bit stored tag can only be told apart
     by the arena comparison. *)
  let keys = colliding_keys ~cap:8 ~bucket:0 3000 in
  let tag k = (St.hash k lsr 55) land 0xff in
  let by_tag = Hashtbl.create 256 in
  List.iter
    (fun k ->
      Hashtbl.replace by_tag (tag k) (k :: Option.value ~default:[] (Hashtbl.find_opt by_tag (tag k))))
    keys;
  let twins =
    Hashtbl.fold
      (fun _ ks acc ->
        match ks with a :: b :: _ -> (a, b) :: acc | _ -> acc)
      by_tag []
  in
  Alcotest.(check bool) "found same-bucket same-tag twins" true (twins <> []);
  let t = St.create ~log2_slots:3 ~key_width:8 () in
  List.iter
    (fun (a, b) ->
      let ia = St.intern t a and ib = St.intern t b in
      Alcotest.(check bool) "twins get distinct ids" true (ia <> ib);
      Alcotest.(check (option int)) "twin a found" (Some ia) (St.find t a);
      Alcotest.(check (option int)) "twin b found" (Some ib) (St.find t b))
    twins

let test_duplicate_inserts_across_growth () =
  let t = St.create ~log2_slots:0 ~key_width:4 () in
  let key i = Printf.sprintf "%04d" i in
  (* First pass interns 5000 keys (many resizes from the 8-slot floor);
     second pass must return the same ids without growing the count. *)
  for i = 0 to 4999 do
    Alcotest.(check int) "first intern" i (St.intern t (key i))
  done;
  for i = 0 to 4999 do
    Alcotest.(check int) "re-intern" i (St.intern t (key i))
  done;
  Alcotest.(check int) "length unchanged by duplicates" 5000 (St.length t);
  Alcotest.(check string) "round trip" (key 1234) (St.key_of_id t 1234)

let test_scratch_buffer_not_aliased () =
  let t = St.create ~log2_slots:3 ~key_width:6 () in
  let buf = Bytes.of_string "abcdef" in
  Alcotest.(check int) "fresh id" 0 (St.intern_bytes t buf);
  Bytes.blit_string "uvwxyz" 0 buf 0 6;
  Alcotest.(check string) "interned key unchanged by the caller's write"
    "abcdef" (St.key_of_id t 0);
  Alcotest.(check (option int)) "original key still found" (Some 0)
    (St.find t "abcdef");
  Alcotest.(check (option int)) "mutated buffer is a different key" None
    (St.find t "uvwxyz");
  Alcotest.(check int) "second key gets the next id" 1 (St.intern_bytes t buf);
  Bytes.blit_string "abcdef" 0 buf 0 6;
  Alcotest.(check int) "re-probe from the buffer finds the first key" 0
    (St.intern_bytes t buf);
  Alcotest.(check int) "two keys" 2 (St.length t);
  match St.intern_bytes t (Bytes.create 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch accepted by intern_bytes"

let test_structured_errors () =
  let t = St.create ~key_width:3 () in
  ignore (St.intern t "abc");
  let wrong_width f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "width mismatch accepted"
  in
  wrong_width (fun () -> St.intern t "ab");
  wrong_width (fun () -> St.find t "abcd" |> Option.is_some);
  wrong_width (fun () -> St.mem t "");
  (match St.key_of_id t 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range id accepted");
  (match St.key_of_id t (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative id accepted");
  Alcotest.(check int) "table undamaged" 1 (St.length t);
  Alcotest.(check (option int)) "original key intact" (Some 0) (St.find t "abc")

let test_words_grows () =
  let t = St.create ~key_width:8 () in
  let w0 = St.words t in
  for i = 0 to 9999 do
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int i);
    ignore (St.intern t (Bytes.to_string b))
  done;
  Alcotest.(check bool) "words reflects arena growth" true (St.words t > w0)

(* ------------------------------------------------------------------ *)
(* Pages                                                               *)
(* ------------------------------------------------------------------ *)

(* 64-byte keys fill a 1 MiB arena page with 2^14 keys; the slot index
   pages hold 2^16 records. *)
let arena_page = 1 lsl 14
let slot_page = 1 lsl 16
let wide_key i = Printf.sprintf "%064d" i

(* 2^18 keys cross 15 arena pages and three slot-index doublings past
   one full page (2^16 -> 2^17 -> 2^18 -> 2^19 slots).  After each
   doubling every key interned so far must still be found. *)
let test_page_boundary_ids () =
  let t = St.create ~key_width:64 () in
  let n = 1 lsl 18 in
  let doublings = ref 0 in
  for i = 0 to n - 1 do
    let cap = St.capacity t in
    Alcotest.(check int) "fresh id" i (St.intern t (wide_key i));
    if St.capacity t > cap && cap >= slot_page then begin
      incr doublings;
      for j = 0 to i do
        if St.find t (wide_key j) <> Some j then
          Alcotest.failf "key %d lost by the doubling to %d slots" j
            (St.capacity t)
      done
    end
  done;
  Alcotest.(check int) "three doublings past one slot page" 3 !doublings;
  let around page k = [ (k * page) - 1; k * page; (k * page) + 1 ] in
  List.iter
    (fun id ->
      if id < n then begin
        Alcotest.(check string) "key_of_id" (wide_key id) (St.key_of_id t id);
        Alcotest.(check (option int)) "find" (Some id) (St.find t (wide_key id));
        Alcotest.(check int) "re-intern" id (St.intern t (wide_key id))
      end)
    (List.concat_map (around arena_page) (List.init 15 succ)
    @ List.concat_map (around slot_page) [ 1; 2; 3 ]);
  Alcotest.(check int) "no key added by the look-ups" n (St.length t)

(* Keys whose home slot is the last record of a slot page: their probe
   runs over the page boundary (and, for the table's last slot, wraps to
   slot 0). *)
let test_probe_across_slot_pages () =
  let log2 = 17 in
  let cap = 1 lsl log2 in
  List.iter
    (fun bucket ->
      let keys = colliding_keys ~cap ~bucket 4 in
      let t = St.create ~log2_slots:log2 ~key_width:8 () in
      List.iteri (fun i k -> Alcotest.(check int) "dense id" i (St.intern t k)) keys;
      Alcotest.(check int) "no growth" cap (St.capacity t);
      List.iteri
        (fun i k -> Alcotest.(check (option int)) "found" (Some i) (St.find t k))
        keys;
      let absent = List.nth (colliding_keys ~cap ~bucket 5) 4 in
      Alcotest.(check (option int)) "absent collider misses" None
        (St.find t absent))
    [ slot_page - 1; cap - 1 ]

(* The image format, written out by hand: magic, width, count, the
   checksum of the keys, then the keys back to back. *)
let expected_image ~width ~magic elements =
  let used = String.length elements in
  let b = Bytes.create (32 + used) in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int width);
  Bytes.set_int64_le b 16 (Int64.of_int (used / Int.max 1 width));
  Bytes.blit_string elements 0 b 32 used;
  Bytes.set_int64_le b 24
    (Int64.of_int (Modelcheck.Checkpoint.checksum b 32 used));
  b

let test_table_images_at_page_edges () =
  List.iter
    (fun n ->
      let t = St.create ~key_width:64 () in
      for i = 0 to n - 1 do
        ignore (St.intern t (wide_key i))
      done;
      let img = St.serialize t in
      let keys = String.concat "" (List.init n wide_key) in
      Alcotest.(check bool)
        (Printf.sprintf "image of %d keys is the format" n)
        true
        (Bytes.equal img (expected_image ~width:64 ~magic:"STBL0001" keys));
      let t' = St.deserialize img in
      Alcotest.(check bool)
        (Printf.sprintf "image of %d keys survives a load" n)
        true
        (Bytes.equal img (St.serialize t'));
      if n > 0 then begin
        Alcotest.(check (option int)) "last key found" (Some (n - 1))
          (St.find t' (wide_key (n - 1)));
        Alcotest.(check int) "next id" n (St.intern t' (wide_key n))
      end)
    [ 0; 1; arena_page - 1; arena_page; arena_page + 1 ]

(* [words] counts the allocated pages: the key that opens a new arena
   page adds that page, and a doubling past one slot page adds only the
   new half of the index (its old pages are reused). *)
let test_words_counts_pages () =
  let word_bytes = Sys.word_size / 8 in
  let t = St.create ~key_width:64 () in
  let step i =
    let w = St.words t in
    ignore (St.intern t (wide_key i));
    St.words t - w
  in
  for i = 0 to arena_page - 1 do
    ignore (step i)
  done;
  let d = step arena_page in
  let page = (1 lsl 20) / word_bytes in
  if d < page || d > page + 8 then
    Alcotest.failf "opening arena page 1 added %d words, one page is %d" d page;
  let next = ref (arena_page + 1) in
  while St.capacity t < 1 lsl 17 do
    ignore (step !next);
    incr next
  done;
  let record_page = (5 * slot_page) / word_bytes in
  let doubled = ref None in
  while !doubled = None do
    let cap = St.capacity t in
    let d = step !next in
    incr next;
    if St.capacity t > cap then doubled := Some d
  done;
  let d = Option.get !doubled in
  if d < 2 * record_page || d > (2 * record_page) + 16 then
    Alcotest.failf
      "doubling 2^17 -> 2^18 slots added %d words; the new half is %d" d
      (2 * record_page)

(* Headers with a valid checksum that would make the loader allocate
   without bound (or wrap its size to a short image) are refused before
   anything is allocated. *)
let header ~magic a b =
  let img = Bytes.create 32 in
  Bytes.blit_string magic 0 img 0 8;
  Bytes.set_int64_le img 8 (Int64.of_int a);
  Bytes.set_int64_le img 16 (Int64.of_int b);
  Bytes.set_int64_le img 24
    (Int64.of_int (Modelcheck.Checkpoint.checksum img 32 0));
  img

let expect_corrupt what f =
  match f () with
  | exception Modelcheck.Checkpoint.Corrupt_checkpoint _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" what

let test_implausible_headers () =
  List.iter
    (fun (what, width, count) ->
      expect_corrupt what (fun () ->
          St.deserialize (header ~magic:"STBL0001" width count)))
    [
      ("key_width 2^40, count 0", 1 lsl 40, 0);
      ("key_width 0, count 2^31", 0, 1 lsl 31);
      ("key_width 2^32, count 2^31", 1 lsl 32, 1 lsl 31);
    ];
  Alcotest.(check int) "one empty key is plausible" 1
    (St.length (St.deserialize (header ~magic:"STBL0001" 0 1)));
  (* 4 * 2^61 wraps to 0 on a 63-bit int *)
  expect_corrupt "stride 4, len 2^61" (fun () ->
      Pv.deserialize (header ~magic:"PVEC0001" 4 (1 lsl 61)))

(* ------------------------------------------------------------------ *)
(* Probe quality on real key streams                                   *)
(* ------------------------------------------------------------------ *)

module Snap = Algorithms.Snapshot
module Mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Snapshot)

(* The byte-wise 64-bit FNV-1a the word-wise hash replaced, kept as the
   yardstick: same offset basis folded into 63 bits, same prime. *)
let fnv1a key =
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to String.length key - 1 do
    h := (!h lxor Char.code (String.unsafe_get key i)) * 0x100000001b3
  done;
  !h land max_int

(* Distinct snapshot keys in BFS discovery order, wiring after wiring,
   at most [limit] — the inputs [1..n] are [Core.verify_snapshot_model]'s
   defaults. *)
let snapshot_keys ~n ~wirings ~limit =
  let cfg = Snap.standard ~n in
  let inputs = Array.init n (fun i -> i + 1) in
  let distinct = Hashtbl.create 4096 and order = ref [] in
  List.iter
    (fun wiring ->
      let seen = Hashtbl.create 4096 and queue = Queue.create () in
      let visit st =
        let key = Mc.encode_state cfg st in
        if Hashtbl.length distinct < limit && not (Hashtbl.mem seen key)
        then begin
          Hashtbl.add seen key ();
          Queue.add st queue;
          if not (Hashtbl.mem distinct key) then begin
            Hashtbl.add distinct key ();
            order := key :: !order
          end
        end
      in
      visit (Mc.init_state ~cfg ~inputs);
      while not (Queue.is_empty queue) do
        let st = Queue.pop queue in
        List.iter
          (fun p -> visit (Mc.successor cfg wiring st p))
          (Mc.enabled cfg st)
      done)
    wirings;
  Array.of_list (List.rev !order)

(* Mean distance from home slot over the first [3/4 cap] keys of
   [keys], linear probing in a [cap]-slot table — the table's state just
   before it grows. *)
let mean_displacement hash keys cap =
  let used = Array.make cap false in
  let count = 3 * cap / 4 in
  let total = ref 0 in
  for j = 0 to count - 1 do
    let i = ref (hash keys.(j) land (cap - 1)) in
    while used.(!i) do
      i := (!i + 1) land (cap - 1);
      incr total
    done;
    used.(!i) <- true
  done;
  float_of_int !total /. float_of_int count

(* An ideal hash for reference: the first 8 bytes of the MD5 of a salt
   and the key. *)
let salted_md5 salt key =
  Int64.to_int (String.get_int64_le (Digest.string (salt ^ key)) 0) land max_int

(* The word hash must place the stream no worse than FNV-1a does.  On a
   few thousand keys the displacement of any good hash is mostly
   sampling noise (a random function lands anywhere in about +-15%), so
   a hash that matches the median of 11 salted ideal hashes also passes:
   it cannot be blamed for an FNV-1a draw that happened to be lucky.  A
   structurally weak hash sits far above both bars. *)
let check_probe_quality name keys =
  (* The largest table whose 3/4 growth point the stream reaches. *)
  let cap = ref 8 in
  while 3 * (2 * !cap) / 4 <= Array.length keys do cap := 2 * !cap done;
  let displacement hash = mean_displacement hash keys !cap in
  let word = displacement St.hash and fnv = displacement fnv1a in
  let ideal =
    List.init 11 (fun i -> displacement (salted_md5 (string_of_int i)))
    |> List.sort Float.compare
  in
  let ideal_median = List.nth ideal 5 in
  if word > Float.max fnv ideal_median then
    Alcotest.failf
      "%s: mean displacement %.4f at %d slots; FNV-1a %.4f, ideal median %.4f"
      name word !cap fnv ideal_median

let test_probe_quality () =
  check_probe_quality "n=2 snapshot, all wirings"
    (snapshot_keys ~n:2
       ~wirings:(Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)
       ~limit:max_int);
  check_probe_quality "first 200k n=3 snapshot keys"
    (snapshot_keys ~n:3
       ~wirings:[ Anonmem.Wiring.identity ~n:3 ~m:3 ]
       ~limit:200_000)

(* ------------------------------------------------------------------ *)
(* Packed_vec vs int-array model                                       *)
(* ------------------------------------------------------------------ *)

let gen_pv_scenario =
  QCheck.Gen.(
    1 -- 7 >>= fun stride ->
    let bound = (1 lsl (8 * min stride 7)) - 1 in
    let bound = min bound max_int in
    list_size (0 -- 300) (0 -- bound) >>= fun pushes ->
    list_size (0 -- 50) (pair (0 -- 299) (0 -- bound)) >>= fun sets ->
    return (stride, pushes, sets))

let pv_scenario =
  QCheck.make
    ~print:(fun (stride, pushes, sets) ->
      Printf.sprintf "stride=%d pushes=%d sets=%d" stride (List.length pushes)
        (List.length sets))
    gen_pv_scenario

let prop_packed_vec_model =
  QCheck.Test.make ~name:"Packed_vec matches the int-array model"
    ~count:qcheck_count pv_scenario (fun (stride, pushes, sets) ->
      let v = Pv.create ~capacity:1 ~stride () in
      let model = Array.make (List.length pushes) 0 in
      List.iteri
        (fun i x ->
          model.(i) <- x;
          if Pv.push v x <> i then QCheck.Test.fail_report "push index")
        pushes;
      List.iter
        (fun (i, x) ->
          if i < Pv.length v then begin
            model.(i) <- x;
            Pv.set v i x
          end)
        sets;
      Pv.length v = Array.length model
      && Array.for_all Fun.id (Array.mapi (fun i x -> Pv.get v i = x) model))

let test_packed_vec_range_errors () =
  let v = Pv.create ~stride:2 () in
  ignore (Pv.push v 65535);
  (match Pv.push v 65536 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overflow push accepted");
  (match Pv.push v (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative push accepted");
  Alcotest.(check int) "length unchanged by rejected pushes" 1 (Pv.length v);
  Alcotest.(check int) "stored value intact" 65535 (Pv.get v 0);
  (match Pv.set v 0 70000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overflow set accepted");
  (match Pv.get v 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range get accepted");
  (match Pv.create ~stride:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stride 0 accepted");
  (match Pv.create ~stride:8 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stride 8 accepted")

let test_packed_vec_five_byte_words () =
  (* The explorers pack (id lsl 4) lor pid into stride-5 words; check the
     extremes survive the byte round-trip. *)
  let v = Pv.create ~stride:5 () in
  let top = (1 lsl 40) - 1 in
  ignore (Pv.push v 0);
  ignore (Pv.push v top);
  ignore (Pv.push v ((123456789 lsl 4) lor 15));
  Alcotest.(check int) "zero" 0 (Pv.get v 0);
  Alcotest.(check int) "max 5-byte word" top (Pv.get v 1);
  Alcotest.(check int) "packed edge word" ((123456789 lsl 4) lor 15) (Pv.get v 2)

let test_packed_vec_page_edges () =
  (* 1 MiB pages: 2^20 one-byte or 2^17 five-byte elements. *)
  List.iter
    (fun (stride, page) ->
      let value i = (i * 0x9E3779B1) land ((1 lsl (8 * stride)) - 1) in
      List.iter
        (fun n ->
          let v = Pv.create ~stride () in
          for i = 0 to n - 1 do
            ignore (Pv.push v (value i))
          done;
          List.iter
            (fun i ->
              if i >= 0 && i < n then
                Alcotest.(check int) "get at a page edge" (value i) (Pv.get v i))
            [ page - 1; page; page + 1 ];
          let img = Pv.serialize v in
          let raw = Bytes.create (n * stride) in
          for i = 0 to n - 1 do
            for k = 0 to stride - 1 do
              Bytes.set raw ((i * stride) + k)
                (Char.chr ((value i lsr (8 * k)) land 0xff))
            done
          done;
          let name what = Printf.sprintf "stride %d, %d elements: %s" stride n what in
          Alcotest.(check bool) (name "image is the format") true
            (Bytes.equal img
               (expected_image ~width:stride ~magic:"PVEC0001"
                  (Bytes.to_string raw)));
          let v' = Pv.deserialize img in
          Alcotest.(check bool) (name "image survives a load") true
            (Bytes.equal img (Pv.serialize v'));
          ignore (Pv.push v' 1);
          Alcotest.(check int) (name "push after a load") 1 (Pv.get v' n))
        [ 0; 1; page - 1; page; page + 1 ])
    [ (1, 1 lsl 20); (5, 1 lsl 17) ]

let () =
  Alcotest.run "state_table"
    [
      ( "oracle-differential",
        [
          QCheck_alcotest.to_alcotest prop_membership_and_ids;
          QCheck_alcotest.to_alcotest prop_key_of_id_round_trip;
          QCheck_alcotest.to_alcotest prop_iter_is_insertion_order;
          QCheck_alcotest.to_alcotest prop_load_factor;
          QCheck_alcotest.to_alcotest prop_intern_bytes_matches_intern;
          Alcotest.test_case "scratch buffer never aliased" `Quick
            test_scratch_buffer_not_aliased;
        ] );
      ( "collisions",
        [
          Alcotest.test_case "seeded same-bucket chain" `Quick
            test_seeded_collisions;
          Alcotest.test_case "same-bucket same-tag twins" `Quick
            test_same_tag_collisions;
          Alcotest.test_case "duplicate inserts across growth" `Quick
            test_duplicate_inserts_across_growth;
        ] );
      ( "errors",
        [
          Alcotest.test_case "structured width/id errors" `Quick
            test_structured_errors;
          Alcotest.test_case "words tracks growth" `Quick test_words_grows;
          Alcotest.test_case "implausible image headers refused" `Quick
            test_implausible_headers;
        ] );
      ( "pages",
        [
          Alcotest.test_case "ids at arena and slot page edges" `Quick
            test_page_boundary_ids;
          Alcotest.test_case "probes across slot pages" `Quick
            test_probe_across_slot_pages;
          Alcotest.test_case "images at page edges" `Quick
            test_table_images_at_page_edges;
          Alcotest.test_case "words counts the allocated pages" `Quick
            test_words_counts_pages;
        ] );
      ( "probe-quality",
        [
          Alcotest.test_case "word hash displaces no more than FNV-1a" `Quick
            test_probe_quality;
        ] );
      ( "packed-vec",
        [
          QCheck_alcotest.to_alcotest prop_packed_vec_model;
          Alcotest.test_case "range errors" `Quick test_packed_vec_range_errors;
          Alcotest.test_case "five-byte explorer words" `Quick
            test_packed_vec_five_byte_words;
          Alcotest.test_case "images at page edges" `Quick
            test_packed_vec_page_edges;
        ] );
    ]
