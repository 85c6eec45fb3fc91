(** The one loop over wirings behind every multi-wiring check.

    In the fully-anonymous model the adversary picks each processor's
    register numbering, so a verdict quantifies over a list of wirings —
    by default every wiring of [n] processors over [m] registers with
    processor 0 pinned to the identity (lossless by register anonymity).
    {!run} walks that list in order, folds an accumulator through a
    per-wiring check, and stops at the first per-wiring error.

    Checkpointing engines pass a {!section} codec.  Each wiring's check
    then receives a [ckpt_extra] section holding the wiring's index
    followed by [to_ints] of the accumulator over the wirings {e before}
    it, to be stored beside the engine's own sections — so one file
    resumes both the in-flight wiring and the sweep around it.  On
    [~resume] an existing checkpoint's section is read back, checked
    against the wiring list, and the sweep re-enters at that wiring with
    [~resume:true]; a missing file runs fresh, so drivers can pass
    [~resume:true] unconditionally. *)

type 'acc section = {
  name : string;  (** checkpoint section tag *)
  to_ints : 'acc -> int array;
      (** fixed-width image of the accumulator; [to_ints init] sets the
          width *)
  of_ints : int array -> 'acc;  (** inverse of [to_ints] *)
}

val run :
  ?wirings:Anonmem.Wiring.t list ->
  ?section:'acc section ->
  ?ckpt:Checkpoint.policy ->
  ?resume:bool ->
  ?on_wiring:(Anonmem.Wiring.t -> 'acc -> unit) ->
  n:int ->
  m:int ->
  init:'acc ->
  (resume:bool ->
  ckpt_extra:(string * Bytes.t) list ->
  Anonmem.Wiring.t ->
  'acc ->
  ('acc, 'e) result) ->
  ('acc, 'e) result
(** [run ~n ~m ~init check] folds [check] over the wirings ([?wirings],
    default {!Anonmem.Wiring.enumerate} [~fix_first:true]) and returns
    the final accumulator, or the first error.  [on_wiring] observes the
    accumulator after each wiring whose check passed.

    Resume reads [section] only when both [section] and [ckpt] are given
    and [resume] holds.  Raises {!Checkpoint.Corrupt_checkpoint} when
    the file lacks the section, when the section has the wrong length,
    or when its index lies outside the wiring list. *)
