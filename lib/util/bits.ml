(* Word-level bit tricks for the int-machine execution core.

   The flat schedulers and drivers represent the enabled/alive processor
   sets as single-word bitmasks (bit p = processor p), so every helper
   here must be allocation-free and call-free on the common path: these
   run once or twice per simulated shared-memory step.  Masks are
   non-negative and fit in [max_width] bits, which keeps [1 lsl p]
   well-defined and the SWAR popcount below exact.

   Masks below 2^8 (every processor mask of the fuzz sizes, the naming
   and mutex register masks, the crash masks) are answered by one load
   from a byte table; wider masks take the SWAR path, which also builds
   the tables, so both paths give the same answers. *)

let max_width = 62
(* One bit per processor/register in a tagged 63-bit int, sign bit
   excluded.  The same window as {!Iset}'s bitset representation. *)

module Swar = struct
  (* SWAR popcount over two 32-bit halves: the classic 64-bit constants
     do not fit OCaml's 63-bit int literals, the 32-bit ones do. *)
  let popcount32 x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F in
    (* In C the uint32 multiply truncates and [>> 24] leaves the top
       byte; OCaml's native multiply doesn't truncate, so mask the byte
       out. *)
    ((x * 0x01010101) lsr 24) land 0xFF

  let popcount x = popcount32 (x land 0xFFFFFFFF) + popcount32 (x lsr 32)

  (* Index of the lowest set bit: isolate it, then count the ones below
     it. *)
  let ctz x = popcount ((x land -x) - 1)

  let nth_set mask k =
    let rec drop mask k =
      if k = 0 then ctz mask else drop (mask land (mask - 1)) (k - 1)
    in
    drop mask k
end

(* [popcount_table.[b]] is the popcount of byte [b]; [nth_table.[8b + k]]
   is the [k]-th set bit of byte [b] (0 where [b] has no [k]-th bit), so
   [nth_table.[8b]] is also the lowest set bit of a non-zero [b]. *)
let popcount_table = String.init 256 (fun b -> Char.chr (Swar.popcount b))

let nth_table =
  String.init 2048 (fun i ->
      let b = i lsr 3 and k = i land 7 in
      Char.chr (if k < Swar.popcount b then Swar.nth_set b k else 0))

(* [x land -256 = 0] holds exactly for 0 <= x < 256, so a negative
   argument never indexes a table. *)
let popcount x =
  if x land -256 = 0 then Char.code (String.unsafe_get popcount_table x)
  else Swar.popcount x

let ctz x =
  (* Callers guarantee [x <> 0]. *)
  let low = x land 0xFF in
  if low <> 0 then Char.code (String.unsafe_get nth_table (low lsl 3))
  else Swar.ctz x

let nth_set mask k =
  (* The [k]-th (0-based) set bit of [mask] in increasing bit order —
     the mask analogue of [List.nth enabled k] on the sorted enabled
     list.  Callers guarantee [k < popcount mask], so a byte mask has
     [k < 8] and [k land 7] only keeps the index inside the table. *)
  if mask land -256 = 0 then
    Char.code (String.unsafe_get nth_table ((mask lsl 3) lor (k land 7)))
  else Swar.nth_set mask k

let full n = if n >= max_width then (1 lsl max_width) - 1 else (1 lsl n) - 1

let to_list mask =
  let rec go mask acc =
    if mask = 0 then List.rev acc
    else
      let b = ctz mask in
      go (mask land (mask - 1)) (b :: acc)
  in
  go mask []

let of_list l = List.fold_left (fun acc b -> acc lor (1 lsl b)) 0 l
