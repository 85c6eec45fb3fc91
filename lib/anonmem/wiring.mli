(** Wirings: the hidden per-processor register permutations of the
    fully-anonymous model.

    A wiring assigns to each processor [p] a permutation [σ_p] of the [M]
    registers; when the program of [p] addresses its private register index
    [i], the physical register [σ_p(i)] is accessed (Section 2 of the
    paper).  Processors never observe their own wiring. *)

open Repro_util

type t

val make : Permutation.t array -> t
(** One permutation per processor; all must have the same size [M].
    Raises [Invalid_argument] otherwise, or when the array is empty. *)

val identity : n:int -> m:int -> t
(** Every processor wired straight through — the non-anonymous-memory
    special case used by the named-memory baseline. *)

val random : Rng.t -> n:int -> m:int -> t

val of_lists : int list list -> t
(** 0-based images; convenience for tests and for the Figure-2 wiring. *)

val processors : t -> int
val registers : t -> int

val phys : t -> p:int -> int -> int
(** [phys w ~p i] is the physical register that processor [p]'s private
    index [i] denotes, i.e. [σ_p(i)]. *)

val local_of_phys : t -> p:int -> int -> int
(** Inverse direction: which private index of [p] denotes physical register
    [r]; this is the [σ_p⁻¹(r)] used by the paper when saying "[p] reads
    register [r]". *)

val perm : t -> p:int -> Permutation.t

val enumerate : n:int -> m:int -> fix_first:bool -> t list
(** All wirings for [n] processors and [m] registers.  With [~fix_first:true]
    processor 0's permutation is pinned to the identity: since the registers
    are anonymous, every execution is isomorphic to one in such a wiring
    (global register renaming), which shrinks the model checker's wiring
    space from [(m!)^n] to [(m!)^(n-1)] without losing behaviours. *)

val enumerate_classes : n:int -> m:int -> t list
(** One representative per class of {!enumerate}[ ~fix_first:true]
    wirings under relabelling {e all} [n] processors.  Pinning
    processor 0 already quotients by global register renaming; what
    remains is the choice of {e which} processor got pinned.  Permuting
    the processors by [pi] and renormalizing (composing every wiring
    with [sigma_{pi 0}^{-1}], another global register renaming) maps the
    normalized tuple [(id, w_1, …)] to [(id, w_{pi 0}^{-1} ∘ w_k, …)];
    the two wired systems are isomorphic {e provided the property being
    checked does not distinguish processors} — it may relabel their
    inputs/identities along [pi].  That holds for all the portfolio
    verdicts (mutual exclusion, name distinctness, leader uniqueness,
    deadlock-freedom are counting properties, invariant under renaming
    ids), so clean-cell sweeps over these classes are sound and up to
    [n!] times smaller.  It does {e not} hold for properties that pin a
    specific processor's view (e.g. the Figure-2 replay), which must
    keep sweeping {!enumerate}.  The representative kept is the
    lexicographic minimum of its orbit (pivot-0 entries sorted and no
    other pivot yields a smaller key), so the result is a sublist of
    [enumerate ~fix_first:true] and any violation it finds is a concrete
    wiring of the full space. *)

val classes_of_inputs : 'a array -> int array
(** Interchangeability classes of an input assignment, the [classes] of
    {!automorphisms}: same class iff (structurally) equal input.  Class
    ids are first-occurrence indices. *)

val automorphisms :
  t -> classes:int array -> (Permutation.t * Permutation.t) list
(** The symmetry group of a wired system whose processors are partitioned
    into interchangeability classes (same class = same program and same
    input, which full anonymity makes indistinguishable): all pairs
    [(pi, rho)] of a processor permutation [pi] preserving [classes] and a
    register permutation [rho] such that [perm (pi p) = rho ∘ perm p] for
    every [p].  Relabelling processors by [pi] {e and} physical registers by
    [rho] is then an automorphism of the fixed-wiring transition system:
    local states carry over verbatim (private indices are reinterpreted
    through the moved permutations) and every read/write lands on the
    correspondingly relabelled register.  The list always contains the
    identity pair and is closed under composition (it is a subgroup of
    [S_n × S_m]), which is what makes orbit-minimum canonicalization sound;
    see {!Modelcheck.Canon}.  Raises [Invalid_argument] if [classes] does
    not have one entry per processor. *)

val equal : t -> t -> bool
val pp : t Fmt.t
