(* Paged open-addressing visited table.  See state_table.mli for the
   layout rationale; the short version:

     arena : Paged.t         all interned keys, back to back in pages of
                             2^shift keys; key [id] is the [key_width]
                             bytes at [Paged.offset] of [Paged.page id].
     slots : Bytes.t array   the slot index, in pages of 2^16 records
                             (one page of exactly [capacity] records
                             below that).  Record [i] is at
                             [5 * (i land 0xffff)] of page [i lsr 16]: a
                             little-endian u32 holding id + 1 (all-zero =
                             empty, which [Bytes.make _ '\000'] gives for
                             free), then one tag byte — bits 55..62 of the
                             key's hash, disjoint from the low bits that
                             select the slot, so a tag mismatch rejects a
                             colliding key without reading the arena.
                             Each page carries 3 bytes of padding, so a
                             probe loads a whole record with one 8-byte
                             read.

   Probing is linear (step 1).  With power-of-two capacities, load kept
   at or below 3/4 and a tag filter, the expected number of arena
   comparisons per lookup stays within a few percent of one.

   Nothing large is ever copied: arena pages never move once full, and
   doubling the slot index clears its old pages, adds as many new ones
   and re-derives every record from the arena, so the old index is never
   needed next to the new one. *)

(* Fixed-width elements in pages: element [i] is the [width] bytes at
   [offset a i] of [page a i], a page holding [2^shift] elements (the
   largest power of two that fits 1 MiB).  Page 0 starts at the size
   asked for and grows by half, copying, up to a full page, so a small
   buffer stays small; every later page is allocated full-size and never
   moves.  An element never straddles two pages. *)
module Paged = struct
  type t = {
    width : int;
    shift : int; (* log2 elements per page *)
    emask : int; (* 2^shift - 1 *)
    mutable pages : Bytes.t array;
  }

  let page_bytes = 1 lsl 20

  let create ~width ~first =
    let rec fit k = if k > 0 && width lsl k > page_bytes then fit (k - 1) else k in
    let shift = fit 20 in
    {
      width;
      shift;
      emask = (1 lsl shift) - 1;
      pages = [| Bytes.create (Int.min (width lsl shift) (Int.max 1 first * width)) |];
    }

  (* Callers keep [i] below the number of elements stored. *)
  let[@inline] page a i = Array.unsafe_get a.pages (i lsr a.shift)
  let[@inline] offset a i = (i land a.emask) * a.width

  (* Room for element [i], the one after elements [0 .. i - 1]. *)
  let ensure a i =
    let p = i lsr a.shift in
    if p >= Array.length a.pages then
      a.pages <- Array.append a.pages [| Bytes.create (a.width lsl a.shift) |]
    else if p = 0 then begin
      let b = a.pages.(0) in
      let need = (i + 1) * a.width in
      if need > Bytes.length b then begin
        let cap =
          Int.min (a.width lsl a.shift)
            (Int.max need (Bytes.length b + (Bytes.length b / 2)))
        in
        let b' = Bytes.create cap in
        Bytes.blit b 0 b' 0 (i * a.width);
        a.pages.(0) <- b'
      end
    end

  (* Elements [0 .. n - 1], back to back, into [dst] at [off]. *)
  let blit_out a n dst off =
    let per = a.width lsl a.shift and used = n * a.width in
    let rec go p pos =
      if pos < used then begin
        let len = Int.min per (used - pos) in
        Bytes.blit a.pages.(p) 0 dst (off + pos) len;
        go (p + 1) (pos + len)
      end
    in
    go 0 0

  (* The [n] elements stored back to back in [src] at [off], in pages. *)
  let of_image ~width ~first n src off =
    let a = create ~width ~first:(Int.max first n) in
    let per = width lsl a.shift and used = n * width in
    let rec go p pos =
      if pos < used then begin
        if p >= Array.length a.pages then
          a.pages <- Array.append a.pages [| Bytes.create per |];
        let len = Int.min per (used - pos) in
        Bytes.blit src (off + pos) a.pages.(p) 0 len;
        go (p + 1) (pos + len)
      end
    in
    go 0 0;
    a

  (* A page array and its pages, in words: each payload rounded to whole
     words plus a header. *)
  let pages_words pages =
    Array.fold_left
      (fun acc b -> acc + 2 + (Bytes.length b / (Sys.word_size / 8)))
      (1 + Array.length pages)
      pages

  let words a = 5 + pages_words a.pages
end

type t = {
  key_width : int;
  arena : Paged.t; (* key [id] is element [id]; [count] in use *)
  mutable count : int;
  mutable slots : Bytes.t array; (* 5-byte records: u32 LE id + 1, tag byte *)
  mutable mask : int; (* capacity - 1 *)
}

(* Word-wise multiply-xorshift hash.  Each 8-byte little-endian word is
   folded in with one multiply and one xorshift.  An OCaml int holds 63
   bits, so the top bit of every word is collected in [top] and folded
   in after the last word: for keys of up to 62 words no key bit is
   dropped before mixing.  The
   trailing [width mod 8] bytes are read as the high bytes of the word
   that ends at the key's last byte (as one [small_le] value when the
   whole key is shorter than a word).  The width is folded in once more,
   then a final avalanche spreads every input bit over both the low bits
   that pick the slot and the tag bits: without that last fold a
   one-word key (a packed n = 3 snapshot state) gets a single mixing
   round and displaces measurably more than an ideal hash in the
   table.  The functions are top-level so that hashing allocates
   nothing. *)
let[@inline] mix h x =
  let h = (h lxor x) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 31)

let[@inline] avalanche h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

(* Little-endian value of the [len] bytes at [off], for [len < 8]: two
   overlapping loads, the second ending at the last byte (the bytes they
   share agree, so or-ing them is exact). *)
let small_le b off len =
  if len >= 4 then
    let lo = Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff in
    let hi = Int32.to_int (Bytes.get_int32_le b (off + len - 4)) land 0xffff_ffff in
    lo lor (hi lsl (8 * (len - 4)))
  else if len >= 2 then
    Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + len - 2) lsl (8 * (len - 2)))
  else if len = 1 then Bytes.get_uint8 b off
  else 0

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
      else mix h (small_le b off rest)
    in
    avalanche (mix (mix h top) width) land max_int

(* Hash of the [width] bytes at [off] of [b], seeded with [width]. *)
let hash_at b off width = hash_words b off width width 0 0
let hash key = hash_at (Bytes.unsafe_of_string key) 0 (String.length key)
let tag_of_hash h = (h lsr 55) land 0xff


let max_key_width = Paged.page_bytes
let slot_shift = 16 (* log2 records per slot page *)
let slot_page records = Bytes.make ((5 * records) + 3) '\000'

(* An empty slot index of [cap] records. *)
let slot_pages cap =
  if cap <= 1 lsl slot_shift then [| slot_page cap |]
  else Array.init (cap lsr slot_shift) (fun _ -> slot_page (1 lsl slot_shift))

let create ?(log2_slots = 12) ~key_width () =
  if key_width < 0 || key_width > max_key_width then
    invalid_arg "State_table.create: key_width outside [0..2^20]";
  let cap = 1 lsl Int.max 3 log2_slots in
  {
    key_width;
    arena = Paged.create ~width:key_width ~first:64;
    count = 0;
    slots = slot_pages cap;
    mask = cap - 1;
  }

let key_width t = t.key_width
let length t = t.count
let capacity t = t.mask + 1

(* Slot record [i] as one int: id + 1 in bits 0..31 (0 = empty), the tag
   in bits 32..39.  [i <= mask], so its page exists. *)
let[@inline] record t i =
  Int64.to_int
    (Bytes.get_int64_le
       (Array.unsafe_get t.slots (i lsr slot_shift))
       (5 * (i land 0xffff)))

let set_record t i id h =
  let page = t.slots.(i lsr slot_shift) and off = 5 * (i land 0xffff) in
  Bytes.set_int32_le page off (Int32.of_int (id + 1));
  Bytes.unsafe_set page (off + 4) (Char.unsafe_chr (tag_of_hash h))

(* [width] bytes of [a] at [aoff] against [k] at 0, a word at a time; the
   trailing partial word is compared as the word ending at the last
   byte, and a key shorter than a word as one [small_le] value. *)
let rec equal_words a aoff k width i =
  if i + 8 <= width then
    Bytes.get_int64_le a (aoff + i) = Bytes.get_int64_le k i
    && equal_words a aoff k width (i + 8)
  else if i = width then true
  else if width >= 8 then
    Bytes.get_int64_le a (aoff + width - 8) = Bytes.get_int64_le k (width - 8)
  else Int.equal (small_le a aoff width) (small_le k 0 width)

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
    && equal_words
         (Paged.page t.arena (s - 1))
         (Paged.offset t.arena (s - 1))
         k t.key_width 0
  then s - 1
  else probe t k tag ((i + 1) land t.mask)

let lookup t k h = probe t k (tag_of_hash h) (h land t.mask)

let check_width t len name =
  if len <> t.key_width then
    invalid_arg
      (Printf.sprintf "State_table.%s: key of width %d, table of width %d" name
         len t.key_width)

let key_at t id =
  Bytes.sub_string (Paged.page t.arena id) (Paged.offset t.arena id) t.key_width

let key_of_id t id =
  if id < 0 || id >= t.count then
    invalid_arg
      (Printf.sprintf "State_table.key_of_id: id %d outside [0..%d]" id
         (t.count - 1));
  key_at t id

let iter f t =
  for id = 0 to t.count - 1 do
    f id (key_at t id)
  done

let rec free_slot t i =
  if record t i land 0xFFFF_FFFF = 0 then i
  else free_slot t ((i + 1) land t.mask)

(* Records for every interned key, re-derived from the arena into the
   empty slot index.  Insertion order (hence every dense id) is
   untouched. *)
let index_arena t =
  for id = 0 to t.count - 1 do
    let h = hash_at (Paged.page t.arena id) (Paged.offset t.arena id) t.key_width in
    set_record t (free_slot t (h land t.mask)) id h
  done

(* Double the slot index.  Below a full page the index is one small page
   and is simply replaced; from there on its pages are cleared and
   reused, and only the new half is allocated. *)
let grow_slots t =
  let cap = 2 * (t.mask + 1) in
  if t.mask + 1 < 1 lsl slot_shift then t.slots <- slot_pages cap
  else begin
    Array.iter (fun p -> Bytes.fill p 0 (Bytes.length p) '\000') t.slots;
    let old = Array.length t.slots in
    t.slots <-
      Array.append t.slots
        (Array.init ((cap lsr slot_shift) - old) (fun _ ->
             slot_page (1 lsl slot_shift)))
  end;
  t.mask <- cap - 1;
  index_arena t

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
    Paged.ensure t.arena id;
    Bytes.blit k 0 (Paged.page t.arena id) (Paged.offset t.arena id) t.key_width;
    t.count <- id + 1;
    set_record t (lnot r) id h;
    (* Grow at 3/4 load, after insertion so the slot was still valid. *)
    if 4 * t.count >= 3 * (t.mask + 1) then grow_slots t;
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

(* Every allocated arena and slot page, both page arrays and the
   records themselves. *)
let words t = 6 + Paged.words t.arena + Paged.pages_words t.slots

(* --- checkpoint (de)serialization -------------------------------------
   The arena is the whole truth: dense ids are insertion order, and the
   slot records are a pure function of the interned keys.  So the
   image is a small header plus the used arena bytes, back to back, and
   [deserialize] rebuilds the slots exactly as growth does —
   membership, ids, [key_of_id] and iteration order all come back
   bit-identical.  The image does not depend on the page size. *)

let st_magic = "STBL0001"

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt_checkpoint s)) fmt

let serialize t =
  let used = t.count * t.key_width in
  let b = Bytes.create (8 + 8 + 8 + 8 + used) in
  Bytes.blit_string st_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int t.key_width);
  Bytes.set_int64_le b 16 (Int64.of_int t.count);
  Paged.blit_out t.arena t.count b 32;
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
  (* Checked before anything is allocated.  A zero-width table holds at
     most the empty key, and with key_width <= 2^20 and count <= 2^32
     the arena size below stays under 2^52: it cannot wrap round to the
     length of a short image. *)
  if
    key_width < 0 || key_width > max_key_width || count < 0
    || count > max_id + 1
    || (key_width = 0 && count > 1)
  then
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
  let t =
    {
      key_width;
      arena = Paged.of_image ~width:key_width ~first:64 count b 32;
      count;
      slots = slot_pages (1 lsl !log2);
      mask = (1 lsl !log2) - 1;
    }
  in
  index_arena t;
  t

module Packed_vec = struct
  type t = {
    stride : int;
    limit : int; (* exclusive upper bound on element values *)
    buf : Paged.t; (* vector element [i] is paged element [i] *)
    mutable len : int; (* in elements *)
  }

  let create ?(capacity = 64) ~stride () =
    if stride < 1 || stride > 7 then
      invalid_arg "Packed_vec.create: stride outside [1..7]";
    {
      stride;
      limit = 1 lsl (8 * stride);
      buf = Paged.create ~width:stride ~first:capacity;
      len = 0;
    }

  let stride t = t.stride
  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then
      invalid_arg
        (Printf.sprintf "Packed_vec.get: index %d outside [0..%d]" i (t.len - 1));
    let page = Paged.page t.buf i and off = Paged.offset t.buf i in
    let v = ref 0 in
    for k = t.stride - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get page (off + k))
    done;
    !v

  let put t i x =
    let page = Paged.page t.buf i and off = Paged.offset t.buf i in
    let v = ref x in
    for k = 0 to t.stride - 1 do
      Bytes.unsafe_set page (off + k) (Char.unsafe_chr (!v land 0xff));
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
    let i = t.len in
    Paged.ensure t.buf i;
    t.len <- i + 1;
    put t i x;
    i

  let words t = 4 + Paged.words t.buf

  let pv_magic = "PVEC0001"

  let serialize t =
    let used = t.len * t.stride in
    let b = Bytes.create (8 + 8 + 8 + 8 + used) in
    Bytes.blit_string pv_magic 0 b 0 8;
    Bytes.set_int64_le b 8 (Int64.of_int t.stride);
    Bytes.set_int64_le b 16 (Int64.of_int t.len);
    Paged.blit_out t.buf t.len b 32;
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
    (* [len * stride] must not wrap round to the length of a short image;
       past that check the image length bounds every allocation. *)
    if stride < 1 || stride > 7 || len < 0 || len > max_int / stride then
      corrupt "Packed_vec image has implausible header (stride %d, len %d)"
        stride len;
    let used = len * stride in
    if Bytes.length b <> 32 + used then
      corrupt "Packed_vec image length %d, expected %d (stride %d, len %d)"
        (Bytes.length b) (32 + used) stride len;
    if Checkpoint.checksum b 32 used <> crc then
      corrupt "Packed_vec buffer checksum mismatch";
    {
      stride;
      limit = 1 lsl (8 * stride);
      buf = Paged.of_image ~width:stride ~first:1 len b 32;
      len;
    }
end
