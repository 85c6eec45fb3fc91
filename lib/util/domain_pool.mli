(** A persistent pool of worker domains for fuzz campaigns and wiring
    sweeps.

    Spawning a domain costs hundreds of microseconds — comparable to
    running an entire fuzz case — so campaigns that spawn per invocation
    pay more for the fork/join than the work is worth and a 2-domain
    campaign can come out {e slower} than 1-domain.  This pool spawns
    each worker domain once, on first demand, and keeps it parked on a
    condition variable between jobs; {!parallel} then costs two mutex
    hand-offs per worker instead of a spawn and a join.

    The pool is process-global and safe to use from any domain, though
    the intended shape is one orchestrating domain fanning a batch out
    with {!parallel}: a fuzz campaign's case chunks, or the wirings of
    one model-checking sweep.  Workers are joined through
    [at_exit]. *)

val parallel : domains:int -> (int -> unit) -> unit
(** [parallel ~domains f] runs [f 0 .. f (domains - 1)] concurrently —
    [f 0] in the calling domain, the rest as pool jobs — and returns
    once every instance has finished.  The first exception any instance
    raised (caller's instance wins ties) is re-raised after the barrier,
    so no instance is abandoned mid-flight.  [domains <= 1] degenerates
    to a plain call of [f 0] and spawns nothing.  Call it from outside
    the pool: a job that calls it can wait forever for workers that are
    all busy. *)

val size : unit -> int
(** Worker domains spawned so far (0 until the first [parallel] with
    [domains > 1]); they are never retired before exit. *)
