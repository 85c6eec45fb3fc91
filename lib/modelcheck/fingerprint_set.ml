(* Disk-spillable 64-bit fingerprint sets (see the .mli for the design).

   Fingerprints are true 64-bit FNV-1a values, but the hot paths never
   box an Int64: a fingerprint is carried as two nonnegative native ints
   (hi, lo), each below 2^32, and the multiply by the FNV prime
   p = 2^40 + 0x1b3 is done mod 2^64 in that split representation
   (every intermediate fits well below 2^62).  The RAM tier is one flat
   [Bytes] of 8-byte little-endian slots — no per-entry allocation — and
   spill runs are the same 8-byte words, sorted, behind a checksummed
   header. *)

(* The last three bytes are the format version; bump them whenever the
   run layout or [Checkpoint.checksum] changes. *)
let run_magic_family = "FPRUN"
let run_magic = run_magic_family ^ "002"

(* ------------------------------------------------------------------ *)
(* Split 64-bit FNV-1a                                                  *)
(* ------------------------------------------------------------------ *)

let basis_hi = 0xcbf29ce4
let basis_lo = 0x84222325
let mask32 = 0xffffffff

(* (hi:32, lo:32) * (2^40 + 0x1b3) mod 2^64:
   h * 2^40 ≡ lo * 2^40 (mod 2^64), whose high word is lo lsl 8;
   h * 0x1b3 splits into per-word products with one carry. *)
let[@inline] fnv_step hi lo byte =
  let lo = lo lxor byte in
  let lo_t = lo * 0x1b3 in
  let hi_t = (hi * 0x1b3) + ((lo lsl 8) land mask32) + (lo_t lsr 32) in
  (hi_t land mask32, lo_t land mask32)

let fp_of_key key =
  let hi = ref basis_hi and lo = ref basis_lo in
  for i = 0 to String.length key - 1 do
    let h, l = fnv_step !hi !lo (Char.code (String.unsafe_get key i)) in
    hi := h;
    lo := l
  done;
  (* (0, 0) is the tier's empty marker *)
  if !hi = 0 && !lo = 0 then (0, 1) else (!hi, !lo)

let fingerprint key =
  let hi, lo = fp_of_key key in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let[@inline] fp_compare h1 l1 h2 l2 =
  if h1 <> h2 then compare h1 h2 else compare l1 l2

(* 8-byte LE slot accessors built from unboxed 16-bit reads. *)
let[@inline] read_lo b off =
  Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)

let[@inline] read_hi b off =
  Bytes.get_uint16_le b (off + 4) lor (Bytes.get_uint16_le b (off + 6) lsl 16)

let[@inline] write_fp b off hi lo =
  Bytes.set_uint16_le b off (lo land 0xffff);
  Bytes.set_uint16_le b (off + 2) (lo lsr 16);
  Bytes.set_uint16_le b (off + 4) (hi land 0xffff);
  Bytes.set_uint16_le b (off + 6) (hi lsr 16)

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
}

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt_checkpoint s)) fmt

let run_path t i = Filename.concat t.dir (Printf.sprintf "run-%d.fpr" i)

let capacity_of_budget budget =
  let want = max 64 (budget / 8) in
  (* largest power of two not exceeding [want] *)
  let rec go c = if c * 2 <= want then go (c * 2) else c in
  go 64

let make_dir = function
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      (dir, false)
  | None ->
      let dir = Filename.temp_file "fpset" ".runs" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      (dir, true)

let create ?(ram_budget_bytes = 64 * 1024 * 1024) ?dir () =
  let cap = capacity_of_budget ram_budget_bytes in
  let dir, owns_dir = make_dir dir in
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
  }

let cardinal t = t.total
let resident t = t.resident
let capacity t = t.mask + 1
let spilled_runs t = Array.length t.runs
let spill_bytes t = t.spill_bytes
let omission_bound t =
  let n = float_of_int t.total in
  n *. n *. ldexp 1.0 (-64)

(* Linear probing; the tier never exceeds 3/4 load, so probes terminate. *)
let[@inline] slot_index t hi lo = (lo lxor hi) land t.mask

let tier_mem t hi lo =
  let rec go i =
    let off = i * 8 in
    let shi = read_hi t.slots off and slo = read_lo t.slots off in
    if shi = 0 && slo = 0 then false
    else if shi = hi && slo = lo then true
    else go ((i + 1) land t.mask)
  in
  go (slot_index t hi lo)

(* Only for fingerprints known absent; respects the load bound via the
   caller's spill discipline. *)
let tier_insert t hi lo =
  let rec go i =
    let off = i * 8 in
    if read_hi t.slots off = 0 && read_lo t.slots off = 0 then
      write_fp t.slots off hi lo
    else go ((i + 1) land t.mask)
  in
  go (slot_index t hi lo);
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
    let hi = Array.make n 0 and lo = Array.make n 0 in
    let j = ref 0 in
    for i = 0 to t.mask do
      let off = i * 8 in
      let shi = read_hi t.slots off and slo = read_lo t.slots off in
      if not (shi = 0 && slo = 0) then begin
        hi.(!j) <- shi;
        lo.(!j) <- slo;
        incr j
      end
    done;
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> fp_compare hi.(a) lo.(a) hi.(b) lo.(b)) order;
    let payload = Bytes.create (n * 8) in
    Array.iteri
      (fun k idx -> write_fp payload (k * 8) hi.(idx) lo.(idx))
      order;
    let sum = Checkpoint.checksum payload 0 (Bytes.length payload) in
    let img = Bytes.create (16 + (n * 8) + 8) in
    Bytes.blit_string run_magic 0 img 0 8;
    write_u64 img 8 n;
    Bytes.blit payload 0 img 16 (n * 8);
    write_u64 img (16 + (n * 8)) sum;
    let idx = Array.length t.runs in
    let path = run_path t idx in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_bytes oc img;
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc;
    Sys.rename tmp path;
    t.runs <- Array.append t.runs [| { count = n; sum } |];
    t.spill_bytes <- t.spill_bytes + Bytes.length img;
    Bytes.fill t.slots 0 (Bytes.length t.slots) '\000';
    t.resident <- 0
  end

(* Read one run fully, verifying framing and its trailer checksum (and,
   when a manifest pinned it, the manifest's count/checksum too). *)
let read_run t idx =
  let path = run_path t idx in
  let img =
    try
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      close_in ic;
      b
    with Sys_error e -> corrupt "Fingerprint_set: run %d unreadable: %s" idx e
  in
  if Bytes.length img < 24 then corrupt "Fingerprint_set: run %d truncated" idx;
  let found = Bytes.sub_string img 0 8 in
  if not (String.equal found run_magic) then
    if String.starts_with ~prefix:run_magic_family found then
      corrupt
        "Fingerprint_set: run %d is format %S, this build reads %S; restart \
         the run without --resume"
        idx found run_magic
    else corrupt "Fingerprint_set: run %d has a bad magic" idx;
  let count = read_u64 img 8 in
  if Bytes.length img <> 24 + (count * 8) then
    corrupt "Fingerprint_set: run %d length does not match its header" idx;
  let sum = Checkpoint.checksum img 16 (count * 8) in
  if sum <> read_u64 img (16 + (count * 8)) then
    corrupt "Fingerprint_set: run %d failed its checksum" idx;
  let r = t.runs.(idx) in
  if r.count <> count || r.sum <> sum then
    corrupt "Fingerprint_set: run %d does not match the manifest" idx;
  (img, count)

(* ------------------------------------------------------------------ *)
(* Batch membership + insertion                                         *)
(* ------------------------------------------------------------------ *)

let add_batch t keys =
  let n = Array.length keys in
  let res = Array.make n false in
  if n > 0 then begin
    let hi = Array.make n 0 and lo = Array.make n 0 in
    for i = 0 to n - 1 do
      let h, l = fp_of_key keys.(i) in
      hi.(i) <- h;
      lo.(i) <- l
    done;
    (* Representatives: sort by (fingerprint, arrival); the first of each
       equal-fingerprint group speaks for the batch, the rest are dups. *)
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = fp_compare hi.(a) lo.(a) hi.(b) lo.(b) in
        if c <> 0 then c else compare a b)
      order;
    let cand = Array.make n 0 in
    let alive = Array.make n false in
    let nc = ref 0 in
    Array.iteri
      (fun k idx ->
        let first_of_group =
          k = 0
          ||
          let p = order.(k - 1) in
          fp_compare hi.(p) lo.(p) hi.(idx) lo.(idx) <> 0
        in
        if first_of_group && not (tier_mem t hi.(idx) lo.(idx)) then begin
          cand.(!nc) <- idx;
          alive.(!nc) <- true;
          incr nc
        end)
      order;
    (* Merge the sorted candidates against each sorted run: one
       sequential pass per run per batch. *)
    if !nc > 0 then
      for r = 0 to Array.length t.runs - 1 do
        let img, count = read_run t r in
        let j = ref 0 in
        (* skip candidates already found in an earlier run as we go *)
        for e = 0 to count - 1 do
          let off = 16 + (e * 8) in
          let rh = read_hi img off and rl = read_lo img off in
          let rec advance () =
            if !j < !nc then begin
              let c = cand.(!j) in
              let cmp = fp_compare hi.(c) lo.(c) rh rl in
              if cmp < 0 then begin
                incr j;
                advance ()
              end
              else if cmp = 0 then begin
                alive.(!j) <- false;
                incr j
              end
            end
          in
          advance ()
        done
      done;
    (* Insert the survivors (ascending fingerprint order — deterministic),
       spilling whenever the tier hits its load threshold. *)
    for k = 0 to !nc - 1 do
      if alive.(k) then begin
        let idx = cand.(k) in
        if t.resident >= t.threshold then spill t;
        tier_insert t hi.(idx) lo.(idx);
        t.total <- t.total + 1;
        res.(idx) <- true
      end
    done
  end;
  res

(* ------------------------------------------------------------------ *)
(* Checkpoint sections                                                  *)
(* ------------------------------------------------------------------ *)

let to_sections t =
  let ram = Bytes.create (t.resident * 8) in
  let j = ref 0 in
  for i = 0 to t.mask do
    let off = i * 8 in
    let shi = read_hi t.slots off and slo = read_lo t.slots off in
    if not (shi = 0 && slo = 0) then begin
      write_fp ram (!j * 8) shi slo;
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

let of_sections ~dir sections =
  let meta = Checkpoint.ints_of_bytes (Checkpoint.find "fp_meta" sections) in
  if Array.length meta <> 5 then
    corrupt "Fingerprint_set: meta section of wrong length";
  let cap = meta.(0) in
  if cap < 64 || cap land (cap - 1) <> 0 then
    corrupt "Fingerprint_set: invalid tier capacity %d" cap;
  let manifest =
    Checkpoint.ints_of_bytes (Checkpoint.find "fp_manifest" sections)
  in
  if Array.length manifest mod 2 <> 0 then
    corrupt "Fingerprint_set: manifest section not count/checksum pairs";
  let nruns = Array.length manifest / 2 in
  if nruns <> meta.(3) then
    corrupt "Fingerprint_set: manifest run count disagrees with meta";
  let dir, owns_dir = make_dir (Some dir) in
  ignore owns_dir;
  let t =
    {
      slots = Bytes.make (cap * 8) '\000';
      mask = cap - 1;
      threshold = cap * 3 / 4;
      dir;
      owns_dir = false;
      resident = 0;
      total = meta.(2);
      runs =
        Array.init nruns (fun i ->
            { count = manifest.(2 * i); sum = manifest.((2 * i) + 1) });
      spill_bytes = meta.(4);
    }
  in
  let ram = Checkpoint.find "fp_ram" sections in
  if Bytes.length ram <> meta.(1) * 8 then
    corrupt "Fingerprint_set: RAM section does not match its meta count";
  if meta.(1) > t.threshold then
    corrupt "Fingerprint_set: RAM section exceeds the tier load bound";
  for i = 0 to meta.(1) - 1 do
    tier_insert t (read_hi ram (i * 8)) (read_lo ram (i * 8))
  done;
  (* Pin every run file now: a corrupted or missing spill must fail the
     resume, not silently admit states at the next probe. *)
  for r = 0 to nruns - 1 do
    ignore (read_run t r)
  done;
  t

let close ?(keep_runs = false) t =
  if not keep_runs then begin
    for i = 0 to Array.length t.runs - 1 do
      (try Sys.remove (run_path t i) with Sys_error _ -> ())
    done;
    if t.owns_dir then try Unix.rmdir t.dir with Unix.Unix_error _ -> ()
  end
