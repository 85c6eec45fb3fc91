(* Bit-packed keys; see the interface.  Field [i] occupies bits
   [at.(i) .. at.(i) + bits.(i) - 1] of the packed key, bit [k] being bit
   [k land 7] of byte [k lsr 3].  A field is at most 8 bits, so it spans
   at most two bytes. *)

type t = {
  bits : int array;  (** width of each wide byte's field *)
  at : int array;  (** bit offset of each field *)
  ident : int array;  (** the identity gather map, [ident.(i) = i] *)
  total : int;  (** sum of [bits] *)
  width : int;  (** [ceil (total / 8)] *)
}

exception Field_overflow of { field : int; value : int; bits : int }

let () =
  Printexc.register_printer (function
    | Field_overflow { field; value; bits } ->
        Some
          (Printf.sprintf
             "Key_layout.Field_overflow: wide byte %d holds %d, which does \
              not fit its declared %d bits"
             field value bits)
    | _ -> None)

let make bits =
  if Array.exists (fun b -> b < 0 || b > 8) bits then
    invalid_arg "Key_layout.make: a field width outside 0..8";
  let at = Array.make (Array.length bits) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i b ->
      at.(i) <- !total;
      total := !total + b)
    bits;
  {
    bits = Array.copy bits;
    at;
    ident = Array.init (Array.length bits) Fun.id;
    total = !total;
    width = (!total + 7) / 8;
  }

let bits_for k =
  let rec go b = if k lsr b = 0 then b else go (b + 1) in
  if k <= 0 then 0 else go 1

let wide_width t = Array.length t.bits
let width t = t.width
let describe t = String.concat "" (Array.to_list (Array.map string_of_int t.bits))

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)
let[@inline] set_byte b i x = Bytes.unsafe_set b i (Char.unsafe_chr x)

let overflow t i v = raise (Field_overflow { field = i; value = v; bits = t.bits.(i) })

let check_dst t dst =
  if Bytes.length dst < t.width then invalid_arg "Key_layout: packed buffer too short"

(* The first byte's bits below the stream's start. *)
let[@inline] start_acc dst first =
  if first land 7 = 0 then 0 else byte dst (first lsr 3) land ((1 lsl (first land 7)) - 1)

(* The one writer: [stream t src g ~pos ~len dst] streams fields
   [pos, pos + len) into [dst] from bit [at.(pos)] on, LSB first, field
   [i] read from byte [g.(i)] of [src] ({!patch} passes the identity
   map; callers have checked every index).  [acc] holds the [nacc < 8]
   bits not yet written, so a field costs a shift and an or, and each
   byte is stored once; a tail-recursive loop keeps that state in
   registers.  The bits of the first and last byte outside the range are
   kept.  Overflow is or-ed into [bad] and raised after the loop, whose
   writes it voids. *)
let rec stream_from src g bits dst i stop j acc nacc bad =
  if i = stop then begin
    if nacc > 0 then
      set_byte dst j (acc lor (byte dst j land lnot ((1 lsl nacc) - 1)));
    bad
  end
  else
    let v = byte src (Array.unsafe_get g i) and b = Array.unsafe_get bits i in
    let acc = acc lor (v lsl nacc) and nacc = nacc + b and bad = bad lor (v lsr b) in
    if nacc >= 8 then
      begin
        set_byte dst j (acc land 0xff);
        stream_from src g bits dst (i + 1) stop (j + 1) (acc lsr 8) (nacc - 8) bad
      end
    else stream_from src g bits dst (i + 1) stop j acc nacc bad

let stream t src g ~pos ~len dst =
  if len > 0 then begin
    let first = t.at.(pos) in
    let bad =
      stream_from src g t.bits dst pos (pos + len) (first lsr 3)
        (start_acc dst first) (first land 7) 0
    in
    if bad <> 0 then
      for i = pos to pos + len - 1 do
        let v = byte src g.(i) in
        if v lsr t.bits.(i) <> 0 then overflow t i v
      done
  end

let patch t wide ~pos ~len dst =
  check_dst t dst;
  if pos < 0 || len < 0 || pos + len > Array.length t.bits
     || pos + len > Bytes.length wide
  then invalid_arg "Key_layout.patch: range outside the key";
  stream t wide t.ident ~pos ~len dst

let pack_gather t src g dst =
  let n = Array.length t.bits in
  check_dst t dst;
  if Array.length g < n then invalid_arg "Key_layout.pack_gather: short map";
  for i = 0 to n - 1 do
    if g.(i) < 0 || g.(i) >= Bytes.length src then
      invalid_arg "Key_layout.pack_gather: map outside the key"
  done;
  if t.width > 0 then set_byte dst (t.width - 1) 0;
  stream t src g ~pos:0 ~len:n dst

let pack t wide =
  if String.length wide <> wide_width t then
    invalid_arg "Key_layout.pack: key is not one wide key long";
  let dst = Bytes.make t.width '\000' in
  patch t (Bytes.unsafe_of_string wide) ~pos:0 ~len:(wide_width t) dst;
  Bytes.unsafe_to_string dst

(* Fields [i, n) of [src] (a packed key of [width] bytes) into [wide]:
   [acc] holds the [nacc] bits read ahead, refilled four bytes at a time
   while four remain.  A tail-recursive loop, so the reader state stays
   in registers. *)
let rec unpack_from src width bits wide i n j acc nacc =
  if i < n then begin
    let b = Array.unsafe_get bits i in
    if nacc >= b then begin
      set_byte wide i (acc land ((1 lsl b) - 1));
      unpack_from src width bits wide (i + 1) n j (acc lsr b) (nacc - b)
    end
    else if j + 4 <= width then
      unpack_from src width bits wide i n (j + 4)
        (acc lor ((Int32.to_int (Bytes.get_int32_le src j) land 0xffff_ffff) lsl nacc))
        (nacc + 32)
    else
      unpack_from src width bits wide i n (j + 1)
        (acc lor (Char.code (Bytes.get src j) lsl nacc))
        (nacc + 8)
  end

let unpack t key =
  if String.length key <> t.width then
    invalid_arg "Key_layout.unpack: key is not one packed key long";
  let n = Array.length t.bits in
  let wide = Bytes.create n in
  unpack_from (Bytes.unsafe_of_string key) t.width t.bits wide 0 n 0 0 0;
  Bytes.unsafe_to_string wide

let padding_clear t key =
  String.length key = t.width
  && (t.total land 7 = 0
     || Char.code key.[t.width - 1] lsr (t.total land 7) = 0)
