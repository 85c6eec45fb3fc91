(** Allocation-free word-level bitmask helpers for the int-machine
    execution core: processor sets as single-word masks (bit [p] =
    processor [p]). *)

val max_width : int
(** Widest supported mask, 62 bits — the [Iset] bitset window. *)

val popcount : int -> int
(** Number of set bits: one byte-table load below 2^8, the {!Swar} path
    above.  [x] must be non-negative. *)

val ctz : int -> int
(** Index of the lowest set bit: a byte-table load when it lies in the
    low byte, the {!Swar} path otherwise.  [x] must be non-zero. *)

val nth_set : int -> int -> int
(** [nth_set mask k] is the [k]-th (0-based) set bit in increasing bit
    order — the mask analogue of [List.nth sorted_list k].  Requires
    [0 <= k < popcount mask].  A byte-table load below 2^8, the {!Swar}
    path above. *)

val full : int -> int
(** [full n] has bits [0..n-1] set (clamped to [max_width]). *)

val to_list : int -> int list
(** Set bits in increasing order. *)

val of_list : int list -> int

(** The table-free word-level path the functions above take for masks of
    2^8 and wider, and the reference they equal on every mask. *)
module Swar : sig
  val popcount : int -> int
  (** SWAR popcount over the two 32-bit halves, no branches. *)

  val ctz : int -> int
  val nth_set : int -> int -> int
end
