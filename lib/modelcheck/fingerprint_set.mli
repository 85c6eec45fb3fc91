(** Disk-spillable 64-bit fingerprint visited sets — the TLC-style
    hash-compaction tier that bounds a BFS's visited-set memory by a
    configurable RAM budget instead of by the state count.

    A state is remembered only as the 64-bit FNV-1a fingerprint of its
    canonical key.  Fresh fingerprints land in a fixed-capacity
    open-addressing RAM tier (8 bytes per slot, capacity = budget / 8);
    when the tier reaches 3/4 load it is {e spilled}: the resident
    fingerprints are sorted and written as one immutable run file, and
    the tier is cleared.

    {!add_batch} decides a whole batch in three steps.  Each key is
    hashed once and probed against the RAM tier, in arrival order.  The
    tier misses are deduplicated with a batch-local hash index, so the
    first arrival of each fingerprint speaks for the batch.  Only when
    runs exist are those candidates sorted and merged against every run
    in one sequential pass per run.  Batching is what makes the disk
    tier affordable: the explorers probe one BFS layer (up to [batch]
    states) at a time, so each run is streamed once per layer, not once
    per state.

    Hash compaction is {e lossy}: two distinct states colliding on all 64
    bits makes the second one silently "already visited", omitting its
    subtree.  The standard birthday argument bounds the probability of
    {e any} collision among [n] states by [n^2 / 2^64]; {!omission_bound}
    reports exactly that closed form, and every fingerprint-engine
    summary carries it so a verdict is always qualified by its error
    bound (at 10^6 states the bound is ~5.4e-8; exact engines remain the
    authority wherever they fit in RAM).

    Run files are checksummed ({!Checkpoint.checksum}) and verified on
    {e every} probe pass that merges against them, before any key of the
    batch is admitted, and on resume; corruption raises
    {!Checkpoint.Corrupt_checkpoint} rather than silently admitting
    states.  That pass re-reads and re-checksums every run, so its cost
    grows with the bytes spilled, once per batch.  The set checkpoints
    as sections ({!to_sections} / {!of_sections}): the RAM tier is
    serialized, the run files stay on disk and are pinned by a manifest
    of (count, checksum) pairs. *)

type t

val create : ?ram_budget_bytes:int -> ?dir:string -> unit -> t
(** [create ()] is an empty set whose RAM tier holds at most
    [ram_budget_bytes] (default 64 MiB; rounded down to a power-of-two
    slot count, minimum 64 slots).  Spill runs are written under [dir]
    (created if missing); when [dir] is omitted a private directory is
    created under the system temp dir and removed by {!close}.
    Raises [Invalid_argument] when [ram_budget_bytes] exceeds
    {!max_ram_budget_bytes}. *)

val max_ram_budget_bytes : int
(** The largest budget {!create} accepts: the tier is one [Bytes], so
    its [capacity * 8] bytes must not exceed [Sys.max_string_length]. *)

val fingerprint : string -> int64
(** The 64-bit FNV-1a fingerprint of a key, as the engines compute it
    (the all-zero fingerprint is remapped to 1, which the RAM tier
    reserves as its empty marker).  Exposed for tests that plant
    collisions or check the spill format. *)

val add_batch : t -> string array -> bool array
(** [add_batch t keys] decides membership and inserts in one pass:
    result.(i) is [true] iff [keys.(i)]'s fingerprint was not in the set
    before this call and no earlier [keys.(j)] ([j < i]) shares it —
    i.e. exactly the "fresh state" verdicts of a BFS layer.  May spill
    the RAM tier (possibly mid-batch).  Raises
    [Checkpoint.Corrupt_checkpoint] if any run file fails its checksum,
    count or magic check. *)

val cardinal : t -> int
(** Number of distinct fingerprints added so far. *)

val resident : t -> int
(** Fingerprints currently in the RAM tier (diagnostics). *)

val capacity : t -> int
(** RAM-tier slot count (a power of two, fixed at creation). *)

val spilled_runs : t -> int
val spill_bytes : t -> int
(** Total bytes of run files written so far (headers included). *)

val omission_bound : t -> float
(** [cardinal^2 / 2^64] — the birthday-bound probability that at least
    one state was omitted by a fingerprint collision.  Monotone in the
    state count; reported in every fingerprint-engine summary. *)

val to_sections : t -> (string * Bytes.t) list
(** Checkpoint image: sections ["fp_meta"], ["fp_ram"] (the resident
    fingerprints) and ["fp_manifest"] (per-run count + checksum).  Run
    files are {e not} copied — they are immutable once written, so the
    manifest pins them in place. *)

val of_sections :
  ram_budget_bytes:int -> dir:string -> (string * Bytes.t) list -> t
(** Rebuild a set from {!to_sections} sections, with run files expected
    under [dir].  [ram_budget_bytes] is the budget the set was created
    with, and the tier capacity must be the one {!create} picks for it.
    The counts must add up (every fingerprint is resident or in exactly
    one run, every run costs its payload plus 24 bytes), the RAM section
    must hold distinct non-zero fingerprints, and every manifest entry
    is verified against its file (magic, count, full checksum); any
    mismatch, truncation or missing file raises
    [Checkpoint.Corrupt_checkpoint]. *)

val close : ?keep_runs:bool -> t -> unit
(** Delete the run files (and the spill directory, when the set created
    it).  [~keep_runs:true] leaves everything on disk — used when a
    governor tripped and a checkpoint still references the runs. *)
