(** Deterministic, splittable pseudo-random number generator (splitmix-style,
    allocation-free on the native 63-bit word).

    Every randomized component of the library (schedulers, wirings, workload
    generators, property tests) draws from this generator so that every
    execution, test and benchmark is reproducible from a single integer
    seed.  The global [Random] state is never touched. *)

type t

val create : seed:int -> t
(** A fresh generator.  Equal seeds yield equal streams. *)

val copy : t -> t
(** An independent snapshot of the current state. *)

val split : t -> t
(** A statistically independent child generator; the parent advances. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound) — requires [bound > 0]. *)

val bool : t -> bool
val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  Raises [Invalid_argument] on
    an empty list. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]
    (Fisher–Yates). *)
