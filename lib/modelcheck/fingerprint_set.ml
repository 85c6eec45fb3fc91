(* Disk-spillable 64-bit fingerprint sets (see the .mli for the design).

   A fingerprint is a true 64-bit FNV-1a value.  The hash loop runs on an
   unboxed [Int64] local (the native multiply wraps mod 2^64, which is
   exactly FNV) and stores straight into the batch's candidate buffer;
   every fingerprint at rest is a raw 64-bit word: an 8-byte
   little-endian slot of a [Bytes] (the RAM tier, run images) or an
   element of an [int64] Bigarray (the per-batch candidates and sort
   buffers).  Loads of either compare unboxed, so hashing, probing,
   sorting and merging allocate nothing per key.  Ordering splits a
   fingerprint into two nonnegative native ints (hi, lo), each below
   2^32, and compares those ([lt]).  Spill runs are the tier's slots,
   sorted, behind a checksummed header. *)

(* The last three bytes are the format version; bump them whenever the
   run layout or [Checkpoint.checksum] changes. *)
let run_magic_family = "FPRUN"
let run_magic = run_magic_family ^ "002"

(* ------------------------------------------------------------------ *)
(* 64-bit FNV-1a and the (hi, lo) representation                        *)
(* ------------------------------------------------------------------ *)

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let mask32 = 0xffffffff

let[@inline] hi_of (w : int64) = Int64.to_int (Int64.shift_right_logical w 32)
let[@inline] lo_of (w : int64) = Int64.to_int w land mask32

(* Functions with loops are never inlined, and an [int64] argument to a
   call is boxed; so those take a fingerprint as its (hi, lo) halves and
   rebuild it with [join], which stays unboxed. *)
let[@inline] join hi lo =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

(* Ascending unsigned 64-bit order, as integer compares on the (hi, lo)
   halves: monomorphic, so never a [caml_compare] call. *)
let[@inline] lt (x : int64) (y : int64) =
  let hx = hi_of x and hy = hi_of y in
  hx < hy || (hx = hy && lo_of x < lo_of y)

let[@inline] imin (a : int) b = if a < b then a else b

(* Scratch arrays live outside the OCaml heap: the per-batch ones are
   held across batches, and as heap blocks they would raise the live size
   the major GC paces against. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type fps = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let fps n : fps = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n

(* [dst.{k}] <- the fingerprint of the [len] bytes of [b] at [off], which
   the caller has bounds-checked.  The one FNV loop: storing the hash
   instead of returning it keeps the [Int64] unboxed. *)
let hash_into (dst : fps) k b off len =
  let h = ref fnv_basis in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        fnv_prime
  done;
  (* 0 is the tier's empty marker *)
  dst.{k} <- (if !h = 0L then 1L else !h)

let fingerprint key =
  let a = fps 1 in
  hash_into a 0 (Bytes.unsafe_of_string key) 0 (String.length key);
  a.{0}

(* Merge sort of the fingerprints [a.{0 .. n-1}] in ascending order,
   using [b] (at least [n] long) as the other buffer; returns whichever
   of the two holds the result.  Blocks of 16 are insertion-sorted in
   place, then merged bottom-up, ping-ponging between the buffers. *)
let sort_fps (a : fps) (b : fps) n =
  let block = 16 in
  let b0 = ref 0 in
  while !b0 < n do
    let stop = imin n (!b0 + block) in
    for i = !b0 + 1 to stop - 1 do
      let x = a.{i} in
      let j = ref (i - 1) in
      while !j >= !b0 && lt x a.{!j} do
        a.{!j + 1} <- a.{!j};
        decr j
      done;
      a.{!j + 1} <- x
    done;
    b0 := stop
  done;
  let src = ref a and dst = ref b in
  let width = ref block in
  while !width < n do
    let s = !src and d = !dst in
    let start = ref 0 in
    while !start < n do
      let mid = imin n (!start + !width) in
      let stop = imin n (mid + !width) in
      let i = ref !start and j = ref mid in
      for k = !start to stop - 1 do
        if !j >= stop || (!i < mid && not (lt s.{!j} s.{!i})) then begin
          d.{k} <- s.{!i};
          incr i
        end
        else begin
          d.{k} <- s.{!j};
          incr j
        end
      done;
      start := stop
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

(* ------------------------------------------------------------------ *)
(* The set                                                              *)
(* ------------------------------------------------------------------ *)

type run = { count : int; sum : int }

type t = {
  slots : Bytes.t;  (** capacity * 8 bytes, all-zero slot = empty *)
  mask : int;  (** capacity - 1 *)
  threshold : int;  (** spill when [resident] reaches this (3/4 load) *)
  dir : string;
  owns_dir : bool;
  mutable resident : int;
  mutable total : int;
  mutable runs : run array;  (** index i lives at [run_path t i] *)
  mutable spill_bytes : int;
  (* Per-batch scratch, grow-only and reused across batches.  The batch's
     fingerprints arrive in [cands], in batch order; after the tier probe,
     candidate [k] is the [k]-th tier miss (after deduplication, the
     [k]-th distinct one), in arrival order: fingerprint [cands.{k}],
     batch index [cand_key.{k}]. *)
  mutable cands : fps;
  mutable cand_key : ints;
  mutable flags : Bytes.t;  (** byte [i] is 1 iff batch key [i] is fresh *)
  mutable seen : ints;
      (** open addressing over the distinct candidates: [k + 1], 0 = empty *)
  mutable sorted : fps;  (** the two buffers of the candidates' sort *)
  mutable sort_tmp : fps;
  mutable run_buf : Bytes.t;  (** the run image being merged *)
}

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt_checkpoint s)) fmt

let run_path t i = Filename.concat t.dir (Printf.sprintf "run-%d.fpr" i)

let capacity_of_budget budget =
  let want = max 64 (budget / 8) in
  (* largest power of two not exceeding [want] *)
  let rec go c = if c * 2 <= want then go (c * 2) else c in
  go 64

(* The tier is one [Bytes] of [capacity * 8] bytes.  Budgets round down
   to a power-of-two capacity, so every budget below twice the largest
   power of two that fits in a string is accepted. *)
let max_ram_budget_bytes =
  let rec go p = if p * 2 <= Sys.max_string_length then go (p * 2) else p in
  (2 * go 1) - 1

let checked_capacity ram_budget_bytes =
  if ram_budget_bytes > max_ram_budget_bytes then
    invalid_arg
      (Printf.sprintf
         "Fingerprint_set.create: a %d-byte RAM budget exceeds the largest \
          tier a string can hold (%d bytes)"
         ram_budget_bytes max_ram_budget_bytes);
  capacity_of_budget ram_budget_bytes

let make_dir = function
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      (dir, false)
  | None ->
      let dir = Filename.temp_file "fpset" ".runs" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      (dir, true)

let make ~cap ~dir ~owns_dir =
  {
    slots = Bytes.make (cap * 8) '\000';
    mask = cap - 1;
    threshold = cap * 3 / 4;
    dir;
    owns_dir;
    resident = 0;
    total = 0;
    runs = [||];
    spill_bytes = 0;
    cands = fps 0;
    cand_key = ints 0;
    flags = Bytes.empty;
    seen = ints 0;
    sorted = fps 0;
    sort_tmp = fps 0;
    run_buf = Bytes.empty;
  }

let create ?(ram_budget_bytes = 64 * 1024 * 1024) ?dir () =
  let cap = checked_capacity ram_budget_bytes in
  let dir, owns_dir = make_dir dir in
  make ~cap ~dir ~owns_dir

let cardinal t = t.total
let resident t = t.resident
let capacity t = t.mask + 1
let spilled_runs t = Array.length t.runs
let spill_bytes t = t.spill_bytes
let omission_bound t =
  let n = float_of_int t.total in
  n *. n *. ldexp 1.0 (-64)

(* Linear probing; the tier never exceeds 3/4 load, so probes terminate. *)
let[@inline] slot_index mask hi lo = (hi lxor lo) land mask

let tier_mem t hi lo =
  let x = join hi lo in
  let i = ref (slot_index t.mask hi lo) in
  while
    let w = Bytes.get_int64_le t.slots (!i * 8) in
    not (w = x || w = 0L)
  do
    i := (!i + 1) land t.mask
  done;
  Bytes.get_int64_le t.slots (!i * 8) = x

(* Only for fingerprints known absent; respects the load bound via the
   caller's spill discipline. *)
let tier_insert t hi lo =
  let x = join hi lo in
  let i = ref (slot_index t.mask hi lo) in
  while Bytes.get_int64_le t.slots (!i * 8) <> 0L do
    i := (!i + 1) land t.mask
  done;
  Bytes.set_int64_le t.slots (!i * 8) x;
  t.resident <- t.resident + 1

(* ------------------------------------------------------------------ *)
(* Spilling and run files                                               *)
(* ------------------------------------------------------------------ *)

let write_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)

let read_u64 b off =
  let v = Bytes.get_int64_le b off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    corrupt "Fingerprint_set: 64-bit field out of native range"
  else Int64.to_int v

(* Sort the resident fingerprints and write them as one immutable run
   (tmp + fsync + rename, like the checkpoint container), then clear the
   tier.  Run files are append-only as a set: once written, never
   modified, so the checkpoint manifest can pin them by checksum. *)
let spill t =
  if t.resident > 0 then begin
    let n = t.resident in
    let vals = fps n in
    let j = ref 0 in
    for i = 0 to t.mask do
      let x = Bytes.get_int64_le t.slots (i * 8) in
      if x <> 0L then begin
        vals.{!j} <- x;
        incr j
      end
    done;
    let vals = sort_fps vals (fps n) n in
    let img = Bytes.create (16 + (n * 8) + 8) in
    Bytes.blit_string run_magic 0 img 0 8;
    write_u64 img 8 n;
    for k = 0 to n - 1 do
      Bytes.set_int64_le img (16 + (k * 8)) vals.{k}
    done;
    let sum = Checkpoint.checksum img 16 (n * 8) in
    write_u64 img (16 + (n * 8)) sum;
    let idx = Array.length t.runs in
    let path = run_path t idx in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (* A failed write, fsync or rename closes the channel and leaves no
       [.tmp] behind. *)
    (try
       output_bytes oc img;
       flush oc;
       Unix.fsync (Unix.descr_of_out_channel oc);
       close_out oc;
       Sys.rename tmp path
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    t.runs <- Array.append t.runs [| { count = n; sum } |];
    t.spill_bytes <- t.spill_bytes + Bytes.length img;
    Bytes.fill t.slots 0 (Bytes.length t.slots) '\000';
    t.resident <- 0
  end

(* Read run [idx] into [t.run_buf] and check its framing; returns the
   fingerprint count.  The payload sits at [t.run_buf] offset 16, the
   trailer checksum right after it; [verify_run] checks that.  The
   channel is closed on every exit path. *)
let read_run t idx =
  let path = run_path t idx in
  let len =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          (* no allocation beyond what the manifest entry can account for *)
          if len > 24 + (8 * t.runs.(idx).count) then
            corrupt "Fingerprint_set: run %d is longer than its manifest entry"
              idx;
          if Bytes.length t.run_buf < len then t.run_buf <- Bytes.create len;
          (try really_input ic t.run_buf 0 len
           with End_of_file ->
             corrupt "Fingerprint_set: run %d shrank while being read" idx);
          len)
    with Sys_error e -> corrupt "Fingerprint_set: run %d unreadable: %s" idx e
  in
  let img = t.run_buf in
  if len < 24 then corrupt "Fingerprint_set: run %d truncated" idx;
  let found = Bytes.sub_string img 0 8 in
  if not (String.equal found run_magic) then
    if String.starts_with ~prefix:run_magic_family found then
      corrupt
        "Fingerprint_set: run %d is format %S, this build reads %S; restart \
         the run without --resume"
        idx found run_magic
    else corrupt "Fingerprint_set: run %d has a bad magic" idx;
  let count = read_u64 img 8 in
  if len <> 24 + (count * 8) then
    corrupt "Fingerprint_set: run %d length does not match its header" idx;
  count

(* ------------------------------------------------------------------ *)
(* Batch membership + insertion                                         *)
(* ------------------------------------------------------------------ *)

(* [a] if it has room for [n] entries, else a fresh, uninitialised
   buffer at least half again as long. *)
let grow a n make =
  let dim = Bigarray.Array1.dim a in
  if dim >= n then a else make (max n (dim + (dim / 2)))

(* Open-addressing slot of fingerprint [(hi, lo)] in [t.seen] under
   [smask]: either empty or the entry of the candidate equal to it. *)
let seen_slot t smask hi lo =
  let seen = t.seen and cands = t.cands and x = join hi lo in
  let i = ref (slot_index smask hi lo) in
  while seen.{!i} <> 0 && cands.{seen.{!i} - 1} <> x do
    i := (!i + 1) land smask
  done;
  !i

(* Compact the [n] tier misses to their first arrivals, in order, and
   return how many remain with the index mask, [t.seen] then indexing
   them.  [t.seen] stays at most half full; the part this batch uses is
   cleared first, so a batch aborted by a corrupt run leaves no debt. *)
let dedupe t n =
  let size = ref 64 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  t.seen <- grow t.seen !size ints;
  Bigarray.Array1.(fill (sub t.seen 0 !size) 0);
  let smask = !size - 1 in
  let cands = t.cands and keys = t.cand_key in
  let m = ref 0 in
  for k = 0 to n - 1 do
    let x = cands.{k} in
    let i = seen_slot t smask (hi_of x) (lo_of x) in
    if t.seen.{i} = 0 then begin
      cands.{!m} <- x;
      keys.{!m} <- keys.{k};
      incr m;
      t.seen.{i} <- !m
    end
  done;
  (!m, smask)

(* The one verifying pass over run [idx]: read it, then walk every
   payload word once, folding it into the checksum and advancing the [nc]
   sorted candidates alongside; a candidate found in the run is not
   fresh.  The walk never stops early — a flipped bit anywhere in the
   payload must fail the checksum — and the trailer and manifest are
   checked after it, before the caller inserts anything. *)
let verify_run t idx (sorted : fps) nc smask =
  let count = read_run t idx in
  let buf = t.run_buf and flags = t.flags in
  let h = ref Checkpoint.checksum_basis and j = ref 0 in
  for e = 0 to count - 1 do
    let w = Bytes.get_int64_le buf (16 + (e * 8)) in
    h := Checkpoint.checksum_word !h ~lo:(lo_of w) ~hi:(hi_of w);
    while !j < nc && lt sorted.{!j} w do
      incr j
    done;
    if !j < nc && sorted.{!j} = w then begin
      let i = seen_slot t smask (hi_of w) (lo_of w) in
      Bytes.unsafe_set flags t.cand_key.{t.seen.{i} - 1} '\000';
      incr j
    end
  done;
  let sum = !h land max_int in
  if sum <> read_u64 buf (16 + (count * 8)) then
    corrupt "Fingerprint_set: run %d failed its checksum" idx;
  let r = t.runs.(idx) in
  if r.count <> count || r.sum <> sum then
    corrupt "Fingerprint_set: run %d does not match the manifest" idx

(* Room for a batch of [n] keys in the candidate buffers. *)
let reserve t n =
  t.cands <- grow t.cands n fps;
  t.cand_key <- grow t.cand_key n ints;
  if Bytes.length t.flags < n then
    t.flags <- Bytes.create (max n (Bytes.length t.flags * 3 / 2))

(* Decide the batch whose [n] fingerprints are [t.cands.{0 .. n-1}], in
   arrival order: byte [i] of [t.flags] becomes 1 iff fingerprint [i] is
   not in the set and no earlier one of the batch shares it, and those
   are inserted.  The one probe path behind {!add_page} and
   {!add_batch}. *)
let decide t n =
  Bytes.fill t.flags 0 n '\000';
  (* Filter by the RAM tier in arrival order, compacting the misses to
     the front of [cands]. *)
  let cands = t.cands and cand_key = t.cand_key in
  let slots = t.slots and mask = t.mask in
  let misses = ref 0 in
  for k = 0 to n - 1 do
    let x = cands.{k} in
    let i = ref (slot_index mask (hi_of x) (lo_of x)) in
    let w = ref (Bytes.get_int64_le slots (!i * 8)) in
    while not (!w = x || !w = 0L) do
      i := (!i + 1) land mask;
      w := Bytes.get_int64_le slots (!i * 8)
    done;
    if !w = 0L then begin
      cands.{!misses} <- x;
      cand_key.{!misses} <- k;
      incr misses
    end
  done;
  (* The first arrival of each fingerprint speaks for the batch. *)
  let nc, smask = dedupe t !misses in
  for k = 0 to nc - 1 do
    Bytes.unsafe_set t.flags cand_key.{k} '\001'
  done;
  (* Merge the sorted candidates against each sorted run: one verifying
     pass per run per batch, every run before any candidate is
     admitted. *)
  let nruns = Array.length t.runs in
  if nc > 0 && nruns > 0 then begin
    t.sorted <- grow t.sorted nc fps;
    t.sort_tmp <- grow t.sort_tmp nc fps;
    Bigarray.Array1.(blit (sub cands 0 nc) (sub t.sorted 0 nc));
    let sorted = sort_fps t.sorted t.sort_tmp nc in
    for r = 0 to nruns - 1 do
      verify_run t r sorted nc smask
    done
  end;
  (* Insert the survivors in arrival order, spilling whenever the tier
     hits its load threshold. *)
  for k = 0 to nc - 1 do
    if Bytes.unsafe_get t.flags cand_key.{k} <> '\000' then begin
      if t.resident >= t.threshold then spill t;
      let x = cands.{k} in
      tier_insert t (hi_of x) (lo_of x);
      t.total <- t.total + 1
    end
  done

let add_page t page ~width ~count =
  if width < 0 || count < 0 || (width > 0 && count > Bytes.length page / width)
  then
    invalid_arg "Fingerprint_set.add_page: page too short";
  reserve t count;
  for k = 0 to count - 1 do
    hash_into t.cands k page (k * width) width
  done;
  decide t count;
  (* Move the fresh keys to the front, in arrival order. *)
  let m = ref 0 in
  for k = 0 to count - 1 do
    if Bytes.unsafe_get t.flags k <> '\000' then begin
      if !m <> k then Bytes.blit page (k * width) page (!m * width) width;
      incr m
    end
  done;
  !m

let add_batch t keys =
  let n = Array.length keys in
  reserve t n;
  Array.iteri
    (fun k key ->
      hash_into t.cands k (Bytes.unsafe_of_string key) 0 (String.length key))
    keys;
  decide t n;
  Array.init n (fun k -> Bytes.unsafe_get t.flags k <> '\000')

(* ------------------------------------------------------------------ *)
(* Checkpoint sections                                                  *)
(* ------------------------------------------------------------------ *)

let to_sections t =
  let ram = Bytes.create (t.resident * 8) in
  let j = ref 0 in
  for i = 0 to t.mask do
    let x = Bytes.get_int64_le t.slots (i * 8) in
    if x <> 0L then begin
      Bytes.set_int64_le ram (!j * 8) x;
      incr j
    end
  done;
  let manifest =
    Array.to_list t.runs
    |> List.concat_map (fun r -> [ r.count; r.sum ])
    |> Array.of_list
  in
  [
    ( "fp_meta",
      Checkpoint.bytes_of_ints
        [| t.mask + 1; t.resident; t.total; Array.length t.runs; t.spill_bytes |]
    );
    ("fp_ram", ram);
    ("fp_manifest", Checkpoint.bytes_of_ints manifest);
  ]

let of_sections ~ram_budget_bytes ~dir sections =
  let meta = Checkpoint.ints_of_bytes (Checkpoint.find "fp_meta" sections) in
  if Array.length meta <> 5 then
    corrupt "Fingerprint_set: meta section of wrong length";
  let cap = meta.(0) and resident = meta.(1) and total = meta.(2) in
  let expected = checked_capacity ram_budget_bytes in
  if cap <> expected then
    corrupt
      "Fingerprint_set: tier capacity %d does not match the %d slots of a \
       %d-byte budget"
      cap expected ram_budget_bytes;
  let manifest =
    Checkpoint.ints_of_bytes (Checkpoint.find "fp_manifest" sections)
  in
  if Array.length manifest mod 2 <> 0 then
    corrupt "Fingerprint_set: manifest section not count/checksum pairs";
  let nruns = Array.length manifest / 2 in
  if nruns <> meta.(3) then
    corrupt "Fingerprint_set: manifest run count disagrees with meta";
  let runs =
    Array.init nruns (fun i ->
        { count = manifest.(2 * i); sum = manifest.((2 * i) + 1) })
  in
  (* Every fingerprint is resident or in exactly one run, and every run
     file is its payload plus 24 bytes of framing. *)
  let spilled = Array.fold_left (fun acc r -> acc + r.count) 0 runs in
  if total < resident || total <> resident + spilled then
    corrupt
      "Fingerprint_set: %d fingerprints do not add up to %d resident plus %d \
       spilled"
      total resident spilled;
  if meta.(4) <> (24 * nruns) + (8 * spilled) then
    corrupt "Fingerprint_set: spill byte count disagrees with the manifest";
  let ram = Checkpoint.find "fp_ram" sections in
  if Bytes.length ram <> resident * 8 then
    corrupt "Fingerprint_set: RAM section does not match its meta count";
  if resident > cap * 3 / 4 then
    corrupt "Fingerprint_set: RAM section exceeds the tier load bound";
  let dir, _ = make_dir (Some dir) in
  let t = make ~cap ~dir ~owns_dir:false in
  t.total <- total;
  t.runs <- runs;
  t.spill_bytes <- meta.(4);
  for i = 0 to resident - 1 do
    let x = Bytes.get_int64_le ram (i * 8) in
    if x = 0L then
      corrupt "Fingerprint_set: RAM section holds the empty marker";
    if tier_mem t (hi_of x) (lo_of x) then
      corrupt "Fingerprint_set: RAM section holds a fingerprint twice";
    tier_insert t (hi_of x) (lo_of x)
  done;
  (* Pin every run file now: a corrupted or missing spill must fail the
     resume, not silently admit states at the next probe. *)
  for r = 0 to nruns - 1 do
    verify_run t r t.sorted 0 0
  done;
  t

let close ?(keep_runs = false) t =
  if not keep_runs then begin
    for i = 0 to Array.length t.runs - 1 do
      (try Sys.remove (run_path t i) with Sys_error _ -> ())
    done;
    if t.owns_dir then try Unix.rmdir t.dir with Unix.Unix_error _ -> ()
  end
