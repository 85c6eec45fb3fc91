(** Single-word packed explorer for {!Algorithms.Rt_mutex} clean-cell
    sweeps — registers as 3-bit fields, local phases interned into dense
    per-processor bit fields, transitions as table lookups, and one iterative
    Tarjan pass checking the mutual-exclusion invariant per state and
    fair-SCC deadlock per component.  Exactly the generic engine's step
    relation and verdict semantics (the differential tests assert state
    and verdict parity), an order of magnitude faster; see the
    implementation header for the packing and the soundness argument. *)

type verdict =
  | Clean of { states : int }  (** swept exhaustively, no violation *)
  | Breach  (** mutual-exclusion invariant or audit tripwire violated *)
  | Fair_cycle  (** deadlock: a fair SCC is reachable *)
  | Exhausted of { reason : Governor.reason; states : int }
      (** a resource governor tripped mid-sweep; when a checkpoint
          policy was in force a final checkpoint was written first, so
          the sweep resumes exactly where it stopped *)
  | Unsupported
      (** shape outside the packed envelope (n > 3, or the mixed-radix
          word would overflow); fall back to the generic engine *)

type ws
(** Reusable exploration buffers (visited table, Tarjan vectors).  A
    sweep over many wirings should allocate one and pass it to every
    {!check_wiring} call.  Buffers start small (a 4096-slot table) and
    keep their high-water capacity, so only the first large space pays
    the growth cost.  Each call first empties the visited table with one
    fill, so a reset costs the capacity the largest space so far grew it
    to (two words per slot, at most four slots per state). *)

val ws : unit -> ws

val check_wiring :
  ?ws:ws ->
  ?governor:Governor.t ->
  ?ckpt:Checkpoint.policy ->
  ?ckpt_extra:(string * Bytes.t) list ->
  ?resume:bool ->
  cfg:Algorithms.Rt_mutex.cfg ->
  wiring:Anonmem.Wiring.t ->
  inputs:int array ->
  unit ->
  verdict
(** Sweep one wiring's full interleaving space.  [inputs] are the
    distinct identities by processor, as in {!Explorer.Make.explore}.
    Verdicts carry no witness: re-run the generic explorer on the
    offending wiring to extract one (violating wirings stop early, so
    the re-run is cheap).

    [governor] is polled once per Tarjan step; on a trip the verdict is
    {!Exhausted} (after a final checkpoint write when [ckpt] is set).
    [ckpt] checkpoints the whole loop state — packed-state table, Tarjan
    bookkeeping, frame stack — every [every_states] steps, atomically;
    [ckpt_extra] sections ride along (sweep drivers store their position
    there); [resume] restarts from [ckpt.path] if it exists, raising
    [Checkpoint.Corrupt_checkpoint] on a torn file or a context
    mismatch. *)
