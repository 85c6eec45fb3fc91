(** Bit-packed state keys: a key at its information width.

    A codec ({!Explorer.CHECKABLE}) writes a state as a {e wide} key of
    one byte per field, and declares for each byte how many low bits can
    be nonzero in a run (from [cfg] and the run's inputs).  Most fields
    hold 2-3 bits, so a Figure-3 state at n = 3 with equal inputs is 21
    wide bytes but 48 bits.  A layout lists those widths; {!pack} writes
    the fields back to back, least significant bit first, into
    [ceil (sum bits / 8)] bytes, and the padding bits of the last byte
    stay zero.  This is the simplest form of SPIN's state compression
    (Holzmann, "State compression in SPIN", 1997): no dictionary, no
    second table, just the declared widths.

    Every write checks the value against its field's width and raises
    {!Field_overflow} on a value that does not fit, so a wrong
    declaration stops the search: two states can never be merged by a
    truncated field. *)

type t

exception Field_overflow of { field : int; value : int; bits : int }
(** Wide byte [field] holds [value], which needs more than its declared
    [bits]. *)

val make : int array -> t
(** [make bits] lays out a wide key of [Array.length bits] bytes, byte
    [i] holding at most [bits.(i)] low bits.  Raises [Invalid_argument]
    unless every width is in [0 .. 8]. *)

val bits_for : int -> int
(** [bits_for k] is the number of bits that hold every value in
    [0 .. k]: [ceil (log2 (k + 1))], and 0 for [k <= 0]. *)

val wide_width : t -> int
(** Bytes of the wide key. *)

val width : t -> int
(** Bytes of the packed key. *)

val describe : t -> string
(** The widths as a digit string, one digit per wide byte: what a
    checkpoint context records of the layout. *)

val pack : t -> string -> string
(** [pack t wide] is the packed image of the wide key [wide], padding
    bits clear.  Raises [Invalid_argument] unless
    [String.length wide = wide_width t].
    @raise Field_overflow on a field wider than declared. *)

val pack_gather : t -> Bytes.t -> int array -> Bytes.t -> unit
(** [pack_gather t src g dst] packs into [dst] the wide key whose byte
    [i] is [src.(g.(i))] — the image of [src] under a byte-gather map —
    without building it.
    @raise Field_overflow as {!pack} does. *)

val patch : t -> Bytes.t -> pos:int -> len:int -> Bytes.t -> unit
(** [patch t wide ~pos ~len dst] rewrites, in the packed key [dst], the
    fields of wide bytes [pos .. pos + len - 1] from those bytes of
    [wide], leaving every other field as it was: one component's bits,
    patched in place.
    @raise Field_overflow as {!pack} does. *)

val unpack : t -> string -> string
(** [unpack t key] is the wide key of the packed [key].  Raises
    [Invalid_argument] unless [String.length key = width t]. *)

val padding_clear : t -> string -> bool
(** Whether the packed [key] has no bit set past its last field — true
    of every key {!pack} makes; a checkpoint's keys are checked with it
    on resume. *)
