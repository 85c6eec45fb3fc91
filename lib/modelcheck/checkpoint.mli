(** Atomic, checksummed checkpoint files for the verification engines.

    A checkpoint is a flat container of named binary sections:

    {v
      "ANONCKP2"  8-byte magic; the last byte is the format version
      u32 LE      section count
      per section:
        u16 LE    tag length   | tag bytes (UTF-8 name, e.g. "table")
        u64 LE    payload length
        u64 LE    FNV-64 checksum of the payload
        payload bytes
    v}

    Each engine decides what its sections mean ({!Explorer} stores the
    visited table, parent/successor vectors and BFS frontier position;
    {!Rt_mutex_packed} its hash table and Tarjan stacks); this module
    owns only framing, integrity and atomicity.  [save] writes the whole
    image to [path ^ ".tmp"], fsyncs, then renames — so the previous
    checkpoint survives any crash mid-write, and [load] of a torn or
    bit-flipped file raises {!Corrupt_checkpoint} instead of returning a
    silently wrong frontier.  So does an image written under another
    format version: its error names both versions and says to restart
    without [--resume]. *)

exception Corrupt_checkpoint of string
(** Raised by {!of_bytes} / {!load} / the engines' [deserialize]
    functions on any framing, truncation or checksum failure.  The
    string names the failing section or offset. *)

exception Simulated_crash
(** Raised by {!save} when a torn write was armed via
    {!set_torn_write} — the chaos-test stand-in for a power cut. *)

val to_bytes : (string * Bytes.t) list -> Bytes.t
val of_bytes : Bytes.t -> (string * Bytes.t) list

val find : string -> (string * Bytes.t) list -> Bytes.t
(** [find tag sections] is the payload of section [tag]; raises
    {!Corrupt_checkpoint} if absent. *)

val save : path:string -> (string * Bytes.t) list -> unit
(** Atomic write-rename of the framed image to [path]. *)

val load : path:string -> (string * Bytes.t) list
(** Read and verify a checkpoint file.  Raises {!Corrupt_checkpoint} on
    any integrity failure and [Sys_error] if the file is unreadable. *)

val checksum : Bytes.t -> int -> int -> int
(** [checksum buf off len] — the FNV-64 (folded to a nonnegative OCaml
    int) used for section integrity; exposed for the journal layer and
    for tests that forge corrupt images. *)

val bytes_of_ints : int array -> Bytes.t
(** 8-byte little-endian encoding of each element — the common payload
    shape for engine counters and frame stacks. *)

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
