(** The one loop over wirings behind every multi-wiring check.

    In the fully-anonymous model the adversary picks each processor's
    register numbering, so a verdict quantifies over a list of wirings —
    by default every wiring of [n] processors over [m] registers with
    processor 0 pinned to the identity (lossless by register anonymity).
    {!run} checks each wiring of that list on its own, folds the
    per-wiring results into an accumulator in list order, and stops at
    the first per-wiring error in that order.

    {b Pooled sweeps.}  With [~domains:d > 1] the wirings are spread over
    up to [d] workers ({!Repro_util.Domain_pool}, the caller's domain
    being one of them).  Workers claim wiring indices in order from one
    atomic counter; once a wiring has failed, no wiring after it is
    claimed, and the results are folded in list order after the barrier.
    Since a check never sees the accumulator, the result — accumulator,
    error, and which wiring it names — is the sequential sweep's at every
    worker count.  An exception raised by the first failing wiring in
    order is re-raised after the barrier, as the sequential sweep would
    raise it.

    {b One worker where order is the meaning.}  The sweep runs in the
    calling domain alone, whatever [domains] says, when a checkpoint
    policy is given (an image describes one in-flight wiring, so images
    and resumes stay byte-identical) or when the governor has a tick
    quota (the quota counts the ticks of one ordered run).  A sweep of
    one wiring never touches the pool.

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

type ('r, 'e) check =
  resume:bool ->
  ckpt_extra:(string * Bytes.t) list ->
  Anonmem.Wiring.t ->
  ('r, 'e) result
(** One wiring's check: its result, or an error that ends the sweep.
    [resume] and [ckpt_extra] are as described above; a pooled sweep
    passes [false] and [[]]. *)

val run :
  ?domains:int ->
  ?governor:Governor.t ->
  ?wirings:Anonmem.Wiring.t list ->
  ?section:'acc section ->
  ?ckpt:Checkpoint.policy ->
  ?resume:bool ->
  ?on_wiring:(Anonmem.Wiring.t -> 'acc -> unit) ->
  n:int ->
  m:int ->
  init:'acc ->
  add:('acc -> 'r -> 'acc) ->
  (governor:Governor.t option -> ('r, 'e) check) ->
  ('acc, 'acc * 'e) result
(** [run ~n ~m ~init ~add make_check] checks every wiring ([?wirings],
    default {!Anonmem.Wiring.enumerate} [~fix_first:true]) and returns
    the fold of [add] over the results from [init], or the first error
    in wiring order paired with the fold over the wirings before it —
    the prefix an error's running totals are counted on top of.
    [on_wiring] observes the accumulator after each wiring whose check
    passed, in order.

    [make_check] is called once per worker, in the worker's domain,
    with the worker's governor: [governor] itself in a one-worker sweep,
    a {!Governor.view} of it in a pooled one — so a trip in any worker
    stops the others at their next tick and is reported by
    {!Governor.tripped} on [governor].  Per-worker scratch (an engine
    workspace) belongs in the closure it returns.

    [domains] (default 1) caps the workers; the sweep also never runs
    more workers than wirings.

    Resume reads [section] only when both [section] and [ckpt] are given
    and [resume] holds.  Raises {!Checkpoint.Corrupt_checkpoint} when
    the file lacks the section, when the section has the wrong length,
    or when its index lies outside the wiring list. *)
