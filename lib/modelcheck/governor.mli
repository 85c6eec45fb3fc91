(** Per-run resource budgets for the verification engines.

    A governor bundles up to four budgets — wall-clock seconds, live
    heap words (checked from a [Gc] alarm at major-collection
    boundaries), a tick quota, and a shared interrupt flag (set from a
    SIGINT/SIGTERM handler, or {!interrupt}) — behind a single [tick]
    call that engines make once per unit of work, through
    {!Checkpoint.tick}: a popped state, a DFS step, a packed Tarjan step
    or an induction configuration.  It is the only way an exhaustive
    engine stops early.  When a budget is exceeded, [tick] returns the
    reason and the engine returns a structured [Exhausted] verdict
    (after writing a final checkpoint) instead of dying; a feasibility
    sweep marks the cell [Unknown(reason)] and moves on.

    Tripping is sticky: once [tick] reports a reason it keeps reporting
    the same one.  The quota budget is exact and deterministic (it
    counts ticks) — the only deterministic budget, which the tests and
    the benchmark use; the
    wall-clock budget is polled every 64 ticks (but on the first tick,
    so a zero budget trips immediately); the heap budget is as fresh as
    the last major collection. *)

type reason = Wall_clock | Heap | Quota | Interrupted

val reason_to_string : reason -> string
val reason_of_string : string -> reason option
val pp_reason : Format.formatter -> reason -> unit

type t

val create :
  ?wall_seconds:float ->
  ?heap_words:int ->
  ?quota:int ->
  ?interrupted_flag:bool Atomic.t ->
  unit ->
  t
(** Omitted budgets are unlimited.  [interrupted_flag] lets many
    per-cell governors share one flag, so a single SIGINT stops a whole
    sweep; when omitted, a private flag is allocated (settable via
    {!interrupt}).  The flag is atomic because a signal handler or
    another domain sets it while engines in other domains poll it. *)

val view : t -> t
(** [view g] is a governor for one more domain to tick: it shares [g]'s
    interrupt flag, heap flag, start time and budgets, and [g]'s trip
    cell, but counts its own ticks.  The first trip of [g] or of any of
    its views is reported by every one of them from their next tick on,
    and by {!tripped} on each, so a pooled sweep stops within one poll
    per worker and its caller reads the reason from [g].  A view's
    quota counts only its own ticks, which is why quota-governed sweeps
    never split ({!Wiring_sweep.run}).  A view installs no alarm;
    {!dispose} [g], not its views. *)

val stoppable : t -> (unit -> bool) -> t
(** [stoppable g stop] is a {!view} of [g] whose {!tick} also reports
    [Interrupted] while [stop ()] holds — to itself alone: the trip
    cell, {!tripped} and the other views are untouched.  A pooled
    {!Wiring_sweep} stops a worker this way while its wiring lies past
    the first failure. *)

val has_quota : t -> bool
(** Whether a tick quota is set — the one budget whose outcome depends
    on the order of the ticks. *)

val tick : t -> reason option
(** Called once per unit of work (a popped state, a DFS step, a packed
    Tarjan step or an induction configuration), from the one domain that
    owns this governor or view.  [Some r] once any budget is exceeded —
    sticky thereafter. *)

val tripped : t -> reason option
(** The sticky verdict without consuming a tick: the first reason the
    governor or any of its {!view}s tripped on. *)

val interrupt : t -> unit
(** Set the interrupt flag (shared, if the governor was created with
    one). *)

val interrupted : t -> bool

val elapsed_s : t -> float
(** Seconds since [create]. *)

val dispose : t -> unit
(** Delete the heap-watermark [Gc] alarm, if one was installed.  Safe to
    call more than once is {e not} guaranteed — call exactly once, when
    the run finishes. *)
