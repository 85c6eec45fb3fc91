(** Atomic, checksummed checkpoint files for the verification engines.

    A checkpoint is a flat container of named binary sections:

    {v
      "ANONCKP3"  8-byte magic; the last byte is the format version
      u32 LE      section count
      per section:
        u16 LE    tag length   | tag bytes (UTF-8 name, e.g. "table")
        u64 LE    payload length
        u64 LE    {!checksum} of the payload
        payload bytes
    v}

    The checksum is FNV-1a on OCaml's 63-bit ints (offset basis
    0x4bf29ce484222325, the FNV-64 basis without bit 63; prime
    0x100000001b3; arithmetic mod 2{^63}), fed the payload's 8-byte
    little-endian words as two 32-bit symbols each, low half first, then
    its 0-7 tail bytes one symbol each; the result is masked to a
    nonnegative int.

    Each engine decides what its sections mean ({!Explorer} stores the
    visited table, parent/successor vectors and BFS frontier position;
    {!Rt_mutex_packed} its id-ordered key vector and Tarjan stacks);
    this module owns only framing, integrity and atomicity.  [save]
    streams the framed sections to [path ^ ".tmp"], fsyncs, then renames
    — so the previous checkpoint survives any crash mid-write, and
    [load] of a torn or bit-flipped file raises {!Corrupt_checkpoint}
    instead of returning a silently wrong frontier.  So does an image
    written under another format version: its error names both versions
    and says to restart without [--resume]. *)

exception Corrupt_checkpoint of string
(** Raised by {!of_bytes} / {!load} / the engines' [deserialize]
    functions on any framing, truncation or checksum failure.  The
    string names the failing section or offset. *)

exception Simulated_crash
(** Raised by {!save} when a torn write was armed via
    {!set_torn_write} — the chaos-test stand-in for a power cut. *)

val frame : (string * Bytes.t) list -> Bytes.t list
(** The framed image as the pieces it concatenates to, in order: the
    file header, then each section's header followed by its payload
    (the payload itself, not a copy).  The one framing both {!to_bytes}
    and {!save} use. *)

val to_bytes : (string * Bytes.t) list -> Bytes.t
(** The concatenated {!frame}: byte-identical to the file {!save}
    writes for the same sections. *)

val of_bytes : Bytes.t -> (string * Bytes.t) list

val find : string -> (string * Bytes.t) list -> Bytes.t
(** [find tag sections] is the payload of section [tag]; raises
    {!Corrupt_checkpoint} if absent. *)

val save : path:string -> (string * Bytes.t) list -> unit
(** Atomic write-rename of the framed image to [path]: the {!frame}
    pieces are written straight to the tmp file, with no intermediate
    image. *)

val load : path:string -> (string * Bytes.t) list
(** Read and verify a checkpoint file.  Raises {!Corrupt_checkpoint} on
    any integrity failure and [Sys_error] if the file is unreadable. *)

val checksum : Bytes.t -> int -> int -> int
(** [checksum buf off len] — the word-wide FNV-1a defined above, used
    for section integrity and by the serialized tables and spill runs
    that embed their own checksums.  Every bit of the range feeds it;
    raises [Invalid_argument] if the range is out of bounds. *)

val bytes_of_ints : ?len:int -> int array -> Bytes.t
(** 8-byte little-endian encoding of each element of the prefix of
    length [len] (default: the whole array) — the common payload shape
    for engine counters, frame stacks and growable vectors encoded
    straight from their live prefix. *)

val ints_of_bytes : Bytes.t -> int array
(** Inverse of {!bytes_of_ints}; raises {!Corrupt_checkpoint} if the
    length is not a multiple of 8. *)

type policy = { path : string; every_states : int }
(** Where to checkpoint and how often, in states popped between
    snapshots.  Engines accept this as their [?ckpt] argument and also
    write a final checkpoint when a governor trips. *)

val set_torn_write : int option -> unit
(** [set_torn_write (Some k)] arms the chaos hook: the next {!save}
    writes only the first [k] bytes of the tmp file, skips the rename,
    raises {!Simulated_crash}, and disarms itself.  [None] disarms. *)
