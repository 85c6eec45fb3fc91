(** Schedulers: the asynchronous adversary deciding which processor takes
    the next step.

    A scheduler is one (possibly stateful) decision procedure over the
    current time and the set of enabled (non-terminated, non-crashed)
    processors, given as a bitmask: bit [p] is processor [p], so at most
    {!Repro_util.Bits.max_width} (62) processors.  All randomness comes
    from {!Repro_util.Rng}, so every schedule is reproducible from a
    seed. *)

open Repro_util

type t = {
  name : string;
  pick : time:int -> mask:int -> int;
      (** The processor to step next, or [-1] for "no pick", which ends
          the run.  [mask] is non-zero; the runner checks that the
          result is one of its bits.  No list and no option is
          allocated per step. *)
}

val name : t -> string

val pick : t -> time:int -> enabled:int list -> int option
(** {!field-pick} over a list of processors: converts [enabled] to a
    mask, and returns [None] on an empty list or on "no pick".  Raises
    [Invalid_argument] on a processor outside the mask window. *)

val round_robin : unit -> t
(** Fair cyclic order over enabled processors.  Guarantees every live
    processor takes infinitely many steps. *)

val random : Rng.t -> t
(** Uniform among enabled processors — fair with probability 1.  One
    draw per pick: the k-th enabled processor in increasing order, as
    {!Repro_util.Rng.pick} takes it from the sorted list. *)

val solo : int -> t
(** Only processor [p] ever runs (obstruction-free executions). *)

val script : ?cycle:bool -> int list -> t
(** Follows the given processor sequence exactly; scripted processors that
    are no longer enabled are skipped.  With [~cycle:true] the script
    repeats forever — this is how the ultimately-periodic executions of
    Section 4 (e.g. Figure 2's steps 5–13 loop) are driven.  Without it the
    run ends when the script is exhausted. *)

val script_then_cycle : prefix:int list -> cycle:int list -> t
(** Follows [prefix] once, then repeats [cycle] forever (skipping halted
    processors, like {!script}).  This is the shape of the paper's
    ultimately-periodic executions: Figure 2 is a 4-action prologue
    followed by the steps 5–13 cycle. *)

val recorded : t -> t * (unit -> int list)
(** [recorded s] behaves exactly like [s] and additionally records every
    pick; the returned thunk yields the picks so far, oldest first.  The
    fuzzing harness uses this to turn any adversary's run into a finite
    replayable script. *)

val crash : crash_at:int option array -> t -> t
(** [crash ~crash_at s] is the crash-prone adversary: processor [p] with
    [crash_at.(p) = Some c] is never scheduled at or after time [c]
    (it crashes).  When every enabled processor has crashed the run ends.
    Processors beyond the array's length never crash.  Times must not
    decrease from one pick to the next. *)

val crash_faults : plan:Fault.plan -> t -> t
(** {!crash} driven by the [Crash_stop] events of a fault plan — the
    scheduler-level reading of crash-stop, sharing {!Fault.event} with the
    memory-level injector of [System.run ~faults].  Non-crash events in
    the plan are ignored here. *)

val fn : name:string -> (time:int -> mask:int -> int) -> t
(** A custom (possibly protocol-aware) scheduler, with {!field-pick}'s
    contract. *)
