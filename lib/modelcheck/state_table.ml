(* Arena-backed open-addressing visited table.  See state_table.mli for
   the layout rationale; the short version:

     arena : Bytes.t     all interned keys, back to back; key [id] is the
                         [key_width] bytes at offset [id * key_width]
     slots : Bytes.t     capacity * 5 bytes of slot records plus 3 bytes
                         of padding.  Record [i] is at [5 * i]: a
                         little-endian u32 holding id + 1 (all-zero =
                         empty, which [Bytes.make _ '\000'] gives for
                         free), then one tag byte — bits 55..62 of the
                         key's hash, disjoint from the low bits that
                         select the slot, so a tag mismatch rejects a
                         colliding key without reading the arena.  The
                         padding lets a probe load a whole record with one
                         8-byte read.

   Probing is linear (step 1).  With power-of-two capacities, load kept
   at or below 3/4 and a tag filter, the expected number of arena
   comparisons per lookup stays within a few percent of one. *)

type t = {
  key_width : int;
  mutable arena : Bytes.t; (* count * key_width bytes in use *)
  mutable count : int;
  mutable slots : Bytes.t; (* 5-byte records: u32 LE id + 1, tag byte *)
  mutable mask : int; (* capacity - 1 *)
}

(* Word-wise multiply-xorshift hash.  Each 8-byte little-endian word is
   folded in with one multiply and one xorshift.  An OCaml int holds 63
   bits, so the top bit of every word is collected in [top] and folded
   in after the last word: for keys of up to 62 words no key bit is
   dropped before mixing.  The
   trailing [width mod 8] bytes are read as the high bytes of the word
   that ends at the key's last byte (byte by byte when the whole key is
   shorter than a word).  A final avalanche spreads every input bit over
   both the low bits that pick the slot and the tag bits.  The functions
   are top-level so that hashing allocates nothing. *)
let[@inline] mix h x =
  let h = (h lxor x) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 31)

let[@inline] avalanche h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

(* Little-endian value of the [len] bytes at [off], for [len < 8]. *)
let rec bytes_le b off len acc =
  if len = 0 then acc
  else
    bytes_le b off (len - 1)
      ((acc lsl 8) lor Char.code (Bytes.unsafe_get b (off + len - 1)))

let rec hash_words b off width h top i =
  if i + 8 <= width then
    let x = Bytes.get_int64_le b (off + i) in
    hash_words b off width
      (mix h (Int64.to_int x))
      ((top lsl 1) lor Int64.to_int (Int64.shift_right_logical x 63))
      (i + 8)
  else
    let rest = width - i in
    let h =
      if rest = 0 then h
      else if width >= 8 then
        mix h
          (Int64.to_int
             (Int64.shift_right_logical
                (Bytes.get_int64_le b (off + width - 8))
                (8 * (8 - rest))))
      else mix h (bytes_le b off rest 0)
    in
    avalanche (mix h top) land max_int

(* Hash of the [width] bytes at [off] of [b], seeded with [width]. *)
let hash_at b off width = hash_words b off width width 0 0
let hash key = hash_at (Bytes.unsafe_of_string key) 0 (String.length key)
let tag_of_hash h = (h lsr 55) land 0xff

let slots_for cap = Bytes.make ((5 * cap) + 3) '\000'

let create ?(log2_slots = 12) ~key_width () =
  if key_width < 0 then invalid_arg "State_table.create: negative key_width";
  let log2 = Int.max 3 log2_slots in
  let cap = 1 lsl log2 in
  {
    key_width;
    arena = Bytes.create (Int.max 64 (64 * key_width));
    count = 0;
    slots = slots_for cap;
    mask = cap - 1;
  }

let key_width t = t.key_width
let length t = t.count
let capacity t = t.mask + 1

(* Slot record [i] as one int: id + 1 in bits 0..31 (0 = empty), the tag
   in bits 32..39. *)
let[@inline] record t i = Int64.to_int (Bytes.get_int64_le t.slots (5 * i))

let set_record t i id h =
  Bytes.set_int32_le t.slots (5 * i) (Int32.of_int (id + 1));
  Bytes.unsafe_set t.slots ((5 * i) + 4) (Char.unsafe_chr (tag_of_hash h))

(* [width] bytes of [a] at [aoff] against [k] at 0, a word at a time; the
   trailing partial word is compared as the word ending at the last
   byte. *)
let rec equal_words a aoff k width i =
  if i + 8 <= width then
    Bytes.get_int64_le a (aoff + i) = Bytes.get_int64_le k i
    && equal_words a aoff k width (i + 8)
  else if i = width then true
  else if width >= 8 then
    Bytes.get_int64_le a (aoff + width - 8) = Bytes.get_int64_le k (width - 8)
  else
    Char.equal (Bytes.unsafe_get a (aoff + i)) (Bytes.unsafe_get k i)
    && equal_words a aoff k width (i + 1)

(* Find the slot holding key [k] (a [key_width]-byte buffer whose hash
   has tag [tag]), starting at slot [i], or the first empty slot of its
   probe sequence.  Returns the id if present, [lnot slot_index] if
   absent — an int encoding rather than a variant, and a top-level
   function rather than a closure, so a probe allocates nothing. *)
let rec probe t k tag i =
  let r = record t i in
  let s = r land 0xFFFF_FFFF in
  if s = 0 then lnot i
  else if
    (r lsr 32) land 0xff = tag
    && equal_words t.arena ((s - 1) * t.key_width) k t.key_width 0
  then s - 1
  else probe t k tag ((i + 1) land t.mask)

let lookup t k h = probe t k (tag_of_hash h) (h land t.mask)

let check_width t len name =
  if len <> t.key_width then
    invalid_arg
      (Printf.sprintf "State_table.%s: key of width %d, table of width %d" name
         len t.key_width)

let key_of_id t id =
  if id < 0 || id >= t.count then
    invalid_arg
      (Printf.sprintf "State_table.key_of_id: id %d outside [0..%d]" id
         (t.count - 1));
  Bytes.sub_string t.arena (id * t.key_width) t.key_width

let iter f t =
  for id = 0 to t.count - 1 do
    f id (Bytes.sub_string t.arena (id * t.key_width) t.key_width)
  done

let rec free_slot t i =
  if record t i land 0xFFFF_FFFF = 0 then i
  else free_slot t ((i + 1) land t.mask)

(* Slot records for every interned key, re-derived from the arena into a
   fresh [cap]-slot array.  Insertion order (hence every dense id) is
   untouched. *)
let rebuild_slots t cap =
  t.slots <- slots_for cap;
  t.mask <- cap - 1;
  for id = 0 to t.count - 1 do
    let h = hash_at t.arena (id * t.key_width) t.key_width in
    set_record t (free_slot t (h land t.mask)) id h
  done

let ensure_arena t =
  let need = (t.count + 1) * t.key_width in
  if need > Bytes.length t.arena then begin
    let cap = Int.max need (Bytes.length t.arena + (Bytes.length t.arena / 2)) in
    let arena = Bytes.create cap in
    Bytes.blit t.arena 0 arena 0 (t.count * t.key_width);
    t.arena <- arena
  end

let max_id = 0xFFFF_FFFE (* slots store id + 1 in a u32 *)

(* Probe for key [k], inserting a copy of it if absent. *)
let intern_key t k =
  let h = hash_at k 0 t.key_width in
  let r = lookup t k h in
  if r >= 0 then r
  else begin
    if t.count > max_id then
      invalid_arg "State_table.intern: table full (2^32 - 1 keys)";
    let id = t.count in
    ensure_arena t;
    Bytes.blit k 0 t.arena (id * t.key_width) t.key_width;
    t.count <- id + 1;
    set_record t (lnot r) id h;
    (* Grow at 3/4 load, after insertion so the slot was still valid. *)
    if 4 * t.count >= 3 * (t.mask + 1) then rebuild_slots t (2 * (t.mask + 1));
    id
  end

let intern t key =
  check_width t (String.length key) "intern";
  intern_key t (Bytes.unsafe_of_string key)

let intern_bytes t buf =
  check_width t (Bytes.length buf) "intern_bytes";
  intern_key t buf

let find t key =
  check_width t (String.length key) "find";
  let k = Bytes.unsafe_of_string key in
  let r = lookup t k (hash_at k 0 t.key_width) in
  if r >= 0 then Some r else None

let mem t key =
  check_width t (String.length key) "mem";
  let k = Bytes.unsafe_of_string key in
  lookup t k (hash_at k 0 t.key_width) >= 0

let words t =
  (* Bytes payloads round up to whole words, plus a 1-word header each;
     the record itself is 5 fields + header. *)
  let bytes_words b = 2 + (Bytes.length b / (Sys.word_size / 8)) in
  6 + bytes_words t.arena + bytes_words t.slots

(* --- checkpoint (de)serialization -------------------------------------
   The arena is the whole truth: dense ids are insertion order, and the
   slot records are a pure function of the interned keys.  So the
   image is a small header plus a blit of the used arena prefix, and
   [deserialize] rebuilds the slots exactly as growth does —
   membership, ids, [key_of_id] and iteration order all come back
   bit-identical. *)

let st_magic = "STBL0001"

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt_checkpoint s)) fmt

let serialize t =
  let used = t.count * t.key_width in
  let b = Bytes.create (8 + 8 + 8 + 8 + used) in
  Bytes.blit_string st_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int t.key_width);
  Bytes.set_int64_le b 16 (Int64.of_int t.count);
  Bytes.blit t.arena 0 b 32 used;
  Bytes.set_int64_le b 24 (Int64.of_int (Checkpoint.checksum b 32 used));
  b

let deserialize b =
  if Bytes.length b < 32 then
    corrupt "State_table image truncated at header (%d bytes)" (Bytes.length b);
  if Bytes.sub_string b 0 8 <> st_magic then
    corrupt "State_table image has bad magic";
  let key_width = Int64.to_int (Bytes.get_int64_le b 8) in
  let count = Int64.to_int (Bytes.get_int64_le b 16) in
  let crc = Int64.to_int (Bytes.get_int64_le b 24) in
  if key_width < 0 || count < 0 || count > max_id + 1 then
    corrupt "State_table image has implausible header (width %d, count %d)"
      key_width count;
  let used = count * key_width in
  if Bytes.length b <> 32 + used then
    corrupt "State_table image length %d, expected %d (width %d, count %d)"
      (Bytes.length b) (32 + used) key_width count;
  if Checkpoint.checksum b 32 used <> crc then
    corrupt "State_table arena checksum mismatch";
  (* Slot capacity: smallest power of two keeping load under 3/4. *)
  let log2 = ref 3 in
  while 4 * count >= 3 * (1 lsl !log2) do incr log2 done;
  let t = create ~log2_slots:!log2 ~key_width () in
  t.arena <- Bytes.create (Int.max 64 (Int.max used (64 * key_width)));
  Bytes.blit b 32 t.arena 0 used;
  t.count <- count;
  rebuild_slots t (1 lsl !log2);
  t

module Packed_vec = struct
  type t = {
    stride : int;
    limit : int; (* exclusive upper bound on element values *)
    mutable buf : Bytes.t;
    mutable len : int; (* in elements *)
  }

  let create ?(capacity = 64) ~stride () =
    if stride < 1 || stride > 7 then
      invalid_arg "Packed_vec.create: stride outside [1..7]";
    {
      stride;
      limit = 1 lsl (8 * stride);
      buf = Bytes.create (Int.max 1 capacity * stride);
      len = 0;
    }

  let stride t = t.stride
  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then
      invalid_arg
        (Printf.sprintf "Packed_vec.get: index %d outside [0..%d]" i (t.len - 1));
    let off = i * t.stride in
    let v = ref 0 in
    for k = t.stride - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get t.buf (off + k))
    done;
    !v

  let put t i x =
    let off = i * t.stride in
    let v = ref x in
    for k = 0 to t.stride - 1 do
      Bytes.unsafe_set t.buf (off + k) (Char.unsafe_chr (!v land 0xff));
      v := !v lsr 8
    done

  let check_range t x name =
    if x < 0 || x >= t.limit then
      invalid_arg
        (Printf.sprintf "Packed_vec.%s: value %d does not fit %d byte(s)" name x
           t.stride)

  let set t i x =
    if i < 0 || i >= t.len then
      invalid_arg
        (Printf.sprintf "Packed_vec.set: index %d outside [0..%d]" i (t.len - 1));
    check_range t x "set";
    put t i x

  let push t x =
    check_range t x "push";
    let need = (t.len + 1) * t.stride in
    if need > Bytes.length t.buf then begin
      let cap = Int.max need (Bytes.length t.buf + (Bytes.length t.buf / 2)) in
      let buf = Bytes.create cap in
      Bytes.blit t.buf 0 buf 0 (t.len * t.stride);
      t.buf <- buf
    end;
    let i = t.len in
    t.len <- i + 1;
    put t i x;
    i

  let words t = 6 + (Bytes.length t.buf / (Sys.word_size / 8))

  let pv_magic = "PVEC0001"

  let serialize t =
    let used = t.len * t.stride in
    let b = Bytes.create (8 + 8 + 8 + 8 + used) in
    Bytes.blit_string pv_magic 0 b 0 8;
    Bytes.set_int64_le b 8 (Int64.of_int t.stride);
    Bytes.set_int64_le b 16 (Int64.of_int t.len);
    Bytes.blit t.buf 0 b 32 used;
    Bytes.set_int64_le b 24 (Int64.of_int (Checkpoint.checksum b 32 used));
    b

  let deserialize b =
    if Bytes.length b < 32 then
      corrupt "Packed_vec image truncated at header (%d bytes)"
        (Bytes.length b);
    if Bytes.sub_string b 0 8 <> pv_magic then
      corrupt "Packed_vec image has bad magic";
    let stride = Int64.to_int (Bytes.get_int64_le b 8) in
    let len = Int64.to_int (Bytes.get_int64_le b 16) in
    let crc = Int64.to_int (Bytes.get_int64_le b 24) in
    if stride < 1 || stride > 7 || len < 0 then
      corrupt "Packed_vec image has implausible header (stride %d, len %d)"
        stride len;
    let used = len * stride in
    if Bytes.length b <> 32 + used then
      corrupt "Packed_vec image length %d, expected %d (stride %d, len %d)"
        (Bytes.length b) (32 + used) stride len;
    if Checkpoint.checksum b 32 used <> crc then
      corrupt "Packed_vec buffer checksum mismatch";
    let t = create ~capacity:(Int.max 1 len) ~stride () in
    Bytes.blit b 32 t.buf 0 used;
    t.len <- len;
    t
end
