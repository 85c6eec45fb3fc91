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
    this module owns only framing, integrity and atomicity.  {!write}
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
(** Raised by {!write} (and so {!save}) when a torn write was armed via
    {!set_torn_write} — the chaos-test stand-in for a power cut. *)

type payload =
  | Raw of Bytes.t  (** written as it is *)
  | Ints of int array * int
      (** [Ints (a, len)]: the {!bytes_of_ints} [~len a] image, encoded
          from the array through a fixed scratch buffer as it is written,
          and checksummed from the ints *)
(** A section payload. *)

val frame : (Bytes.t -> int -> unit) -> (string * payload) list -> unit
(** [frame piece sections] walks the framed image in order: [piece buf
    len] receives the first [len] bytes of [buf] for the file header,
    then for each section its header and its payload — a [Raw] payload
    as it is, an [Ints] prefix as consecutive chunks of one scratch
    buffer that the next chunk overwrites.  The one framing both
    {!to_bytes} and {!write} use.  Raises [Invalid_argument] on a tag
    longer than 65,535 bytes or an [Ints] prefix out of range. *)

val to_bytes : (string * Bytes.t) list -> Bytes.t
(** The image {!frame} walks for [Raw] payloads: byte-identical to the
    file {!save} writes for the same sections. *)

val of_bytes : Bytes.t -> (string * Bytes.t) list

val find : string -> (string * Bytes.t) list -> Bytes.t
(** [find tag sections] is the payload of section [tag]; raises
    {!Corrupt_checkpoint} if absent. *)

val find_records :
  who:string ->
  width:int ->
  ?count:int ->
  string ->
  (string * Bytes.t) list ->
  Bytes.t
(** [find_records ~who ~width ?count tag sections] is the payload of
    section [tag], checked to hold whole [width]-byte records, and
    exactly [count] of them when [count] is given.  The one length check
    of the engines' sections: raises {!Corrupt_checkpoint} ["<who>: <tag>
    section of wrong length"] otherwise, and as {!find} does when the
    section is absent. *)

val find_ints :
  who:string ->
  ?group:int ->
  ?count:int ->
  string ->
  (string * Bytes.t) list ->
  int array
(** {!ints_of_bytes} of {!find_records} with [group]-int records
    (default 1): [~count:4] reads exactly four ints, [~group:4] any whole
    number of four-int frames. *)

val write : path:string -> (string * payload) list -> unit
(** Atomic write-rename of the framed image to [path]: the file header,
    then each section's header and payload, written straight to the tmp
    file with no intermediate image.  The file is byte-identical to
    {!to_bytes} of the same sections with every [Ints (a, len)] replaced
    by [bytes_of_ints ~len a], so an engine saves a live vector's prefix
    without copying it.  Raises [Invalid_argument] as {!frame} does. *)

val save : path:string -> (string * Bytes.t) list -> unit
(** {!write} with every payload [Raw]. *)

val load : path:string -> (string * Bytes.t) list
(** Read and verify a checkpoint file.  Raises {!Corrupt_checkpoint} on
    any integrity failure and [Sys_error] if the file is unreadable. *)

val checksum : Bytes.t -> int -> int -> int
(** [checksum buf off len] — the word-wide FNV-1a defined above, used
    for section integrity and by the serialized tables and spill runs
    that embed their own checksums.  Every bit of the range feeds it;
    raises [Invalid_argument] if the range is out of bounds. *)

val checksum_basis : int

val checksum_word : int -> lo:int -> hi:int -> int
(** One step of {!checksum}: [checksum_word h ~lo ~hi] folds an 8-byte
    word, given as its low and high 32-bit halves, into the running
    value [h].  The checksum of a range of whole words is the fold of
    its words in order from [checksum_basis], masked with [max_int] —
    for readers that verify a payload in the same pass that consumes
    it. *)

val bytes_of_ints : ?len:int -> int array -> Bytes.t
(** 8-byte little-endian encoding of each element of the prefix of
    length [len] (default: the whole array) — the common payload shape
    for engine counters, frame stacks and growable vectors encoded
    straight from their live prefix. *)

val ints_of_bytes : Bytes.t -> int array
(** Inverse of {!bytes_of_ints}; raises {!Corrupt_checkpoint} if the
    length is not a multiple of 8. *)

type policy = { path : string; every_states : int }
(** Where an engine checkpoints and how often: every [every_states]
    ticks of its {!run}, and never periodically when [every_states] is 0
    or less.  Engines accept this as their [?ckpt] argument. *)

val runs_dir : string -> string
(** [runs_dir path] is the directory beside checkpoint [path] that holds
    the fingerprint engine's spill runs: [path ^ ".runs"]. *)

val retire : string -> unit
(** [retire path] removes a finished run's checkpoint [path] and its
    {!runs_dir} with the runs in it, whichever exist: resuming a finished
    run must start over, not replay a stale position. *)

(** {2 The durability contract}

    Every exhaustive engine runs its budget and its checkpoints through
    one {!run}.  A {e tick} is one unit of the engine's work — a popped
    state, a DFS step, a packed Tarjan step, an induction configuration
    — counted at a
    {e consistent point}, where the engine's save closure writes an image
    a resume continues from.  A save is {e due} once [every_states] ticks
    have passed since the last save (or since the run began); with
    [every_states <= 0] none ever is.  A tripped governor makes a
    {e final} save due at once: the image of the work done before the
    tick that tripped, so a resume re-runs that unit.  Without a policy
    nothing is saved; without a governor nothing trips.  A tick that
    saves nothing allocates nothing. *)

type run

val run : ?governor:Governor.t -> policy option -> (string -> unit) -> run
(** [run ?governor ckpt save] starts a run's count at 0; [save path]
    writes the engine's image to [path]. *)

val tick : run -> Governor.reason option
(** Count one unit at a consistent point and poll the governor.  On a
    trip, save the final image and return [Some reason] (sticky, as
    {!Governor.tick}); the engine then stops without doing the unit.
    Otherwise save if one is due and return [None]. *)

val poll : run -> Governor.reason option
(** {!tick} for a unit counted where the image is not consistent (the
    fingerprint engine's pending batch): counts and polls, but leaves any
    due or final save to the next {!settle}. *)

val settle : run -> unit
(** At a consistent point after {!poll}s: save if one is due, or the
    final image if the governor has tripped. *)

val set_torn_write : int option -> unit
(** [set_torn_write (Some k)] arms the chaos hook: the next {!write}
    writes only the first [k] bytes of the tmp file, skips the rename,
    raises {!Simulated_crash}, and disarms itself.  [None] disarms. *)

val engine_of : string -> string
(** The engine tag a checkpoint context starts with (["dfs"], ["bfs"],
    ["fpbfs"], ...): its text before the first ['|']. *)

val resumable :
  who:string ->
  context:string ->
  resume:bool ->
  policy option ->
  (string * Bytes.t) list option
(** [resumable ~who ~context ~resume ckpt] is the sections an engine
    resumes from: [Some] of the loaded checkpoint when [resume] holds and
    the policy's file exists, [None] otherwise (a missing file runs
    fresh).  Raises {!Corrupt_checkpoint} ["<who>: checkpoint context
    mismatch (the image is a <engine> checkpoint ...)"], naming the
    engine tag the file's context starts with, when the file's
    ["context"] section is not [context], and as {!load} does on an
    unusable file. *)
