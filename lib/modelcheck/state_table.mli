(** Arena-backed visited-state tables for the explicit-state explorers.

    Every engine in this library ({!Explorer}'s BFS and DFS passes,
    {!Fault_explorer}, each {!Par_explorer} shard) needs the same data
    structure: a set of fixed-width byte keys with a dense integer id per
    key (id = insertion order), O(1) membership, and the ability to read a
    key back from its id (for decoding popped states and for concretizing
    counterexample traces).  The previous representation — a stdlib
    [(string, int) Hashtbl] plus a parallel [string Vec.t] — pays, per
    state, a boxed string (header + padding), a hash-bucket cons cell and
    two pointer slots; at the paper's 3-processor scale (~2M states per
    wiring) that is ~77 bytes per 21-byte key.

    {!t} stores the keys themselves back to back in a single growable
    [Bytes] arena (key [id] lives at offset [id * key_width]) and resolves
    membership through an open-addressing slot array of 5-byte records,
    interleaved in one [Bytes]: a little-endian u32 holding id + 1
    (0 = empty), then one tag byte.  The tag is bits 55..62 of the key's
    {!hash}, disjoint from the low bits that pick the bucket, so a probe
    almost never touches the arena for keys that do not match, and it
    reads the id and the tag of a slot with one 8-byte load.
    Slot counts are powers of two, doubled at 3/4 load; growth re-derives
    hashes from the arena, so nothing but the keys is ever stored twice.
    Net cost: [key_width] arena bytes plus ~7-10 slot bytes per state.

    The hash reads the key 8 bytes at a time ([Bytes.get_int64_le]),
    folds each word in with a multiply and an xorshift, and finishes with
    an avalanche; keys are compared against the arena word by word too.
    {!intern_bytes} probes straight from a caller's scratch buffer and
    copies the key into the arena only when it is new, so an engine that
    patches each successor's key into one reused buffer allocates nothing
    for a successor it has already seen.

    The table is deliberately minimal: no deletion, no satellite values
    (the dense id {e is} the value), single-writer.  For cross-domain use,
    shard by key ownership as {!Par_explorer} does — one table per domain,
    never shared. *)

type t

val create : ?log2_slots:int -> key_width:int -> unit -> t
(** [create ~key_width ()] is an empty table for keys of exactly
    [key_width] bytes.  [log2_slots] (default 12) sizes the initial slot
    array; it only matters as a pre-sizing hint, the table grows as
    needed.  Raises [Invalid_argument] if [key_width < 0]. *)

val key_width : t -> int
val length : t -> int
(** Number of distinct keys interned so far.  Dense ids are exactly
    [0 .. length - 1]. *)

val capacity : t -> int
(** Current slot count (a power of two) — exposed for the load-factor
    assertions of the oracle-differential test suite. *)

val intern : t -> string -> int
(** [intern t key] returns the dense id of [key], inserting it with id
    [length t] if absent.  The caller can detect insertion by comparing
    {!length} before and after (or the returned id against the prior
    length).  Raises [Invalid_argument] if [String.length key] differs
    from [key_width t]. *)

val intern_bytes : t -> Bytes.t -> int
(** [intern_bytes t buf] is [intern t (Bytes.to_string buf)] without the
    copy: the probe reads [buf] in place, and only a new key is copied
    into the arena.  The table never keeps a reference to [buf], so the
    caller may reuse it as scratch for the next key.  Raises
    [Invalid_argument] if [Bytes.length buf] differs from [key_width t]. *)

val find : t -> string -> int option
(** [find t key] is the dense id of [key], or [None]; never inserts.
    Raises [Invalid_argument] on a key-width mismatch. *)

val mem : t -> string -> bool

val key_of_id : t -> int -> string
(** [key_of_id t id] is a fresh copy of the key with dense id [id] — the
    inverse of the id assignment, used to decode popped states and to
    rebuild counterexample traces.  Raises [Invalid_argument] if [id] is
    not in [0 .. length t - 1]. *)

val iter : (int -> string -> unit) -> t -> unit
(** [iter f t] applies [f id key] to every interned key in id
    (= insertion) order. *)

val words : t -> int
(** Approximate retained size of the table in machine words (arena + slot
    records + record), for the benchmark's memory column. *)

val hash : string -> int
(** The table's own key hash (word-wise multiply-xorshift with a final
    avalanche, a nonnegative OCaml int).  Slot index is
    [hash land (capacity - 1)]; the stored tag is bits 55..62.  Exposed so
    tests can seed same-bucket collisions. *)

val serialize : t -> Bytes.t
(** Checkpoint image of the table: a checksummed header plus a blit of
    the used arena prefix.  The slot records are a pure function of the
    interned keys, so they are rebuilt on load rather than stored. *)

val deserialize : Bytes.t -> t
(** Inverse of {!serialize} — membership, dense ids, {!key_of_id} and
    iteration order are all restored exactly.  Raises
    [Checkpoint.Corrupt_checkpoint] on truncation, bad framing or a
    checksum mismatch. *)

(** Growable vectors of fixed-stride little-endian unsigned integers,
    packed in one [Bytes] buffer — 1 to 7 bytes per element instead of a
    boxed-array word.  The explorers use stride 5 for packed parent links
    and edge words (ids up to 2^35) and stride 1 for DFS colors and
    per-state out-degrees. *)
module Packed_vec : sig
  type t

  val create : ?capacity:int -> stride:int -> unit -> t
  (** [create ~stride ()] is an empty vector of [stride]-byte elements
      ([1 <= stride <= 7]); elements must lie in [0 .. 2^(8*stride) - 1].
      [capacity] pre-sizes in elements. *)

  val stride : t -> int
  val length : t -> int

  val push : t -> int -> int
  (** Appends and returns the index of the new element.  Raises
      [Invalid_argument] if the value does not fit the stride — the
      structured overflow error that replaces silent truncation. *)

  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val words : t -> int
  (** Approximate retained size in machine words. *)

  val serialize : t -> Bytes.t
  val deserialize : Bytes.t -> t
  (** Checksummed image of the packed buffer; raises
      [Checkpoint.Corrupt_checkpoint] on any integrity failure. *)
end
