(** Protocols for the fully-anonymous shared-memory model.

    A protocol is the "same program" that every anonymous processor runs
    (Section 2 of the paper).  It is expressed as a first-order step
    machine: the local state determines the next shared-memory operation via
    {!S.next}, and pure transition functions describe the state after the
    operation completes.  This mirrors the atomicity grain of the paper's
    PlusCal specifications — each label encloses exactly one read or one
    write of a single register, with local computation folded in.

    Register indices appearing in operations are {e local} (private) indices
    in [0..M-1]: the simulator routes them through the processor's hidden
    wiring permutation, which is precisely what makes the memory anonymous.

    Local states must be first-order, canonical values (no closures, no
    non-canonical sets): the model checker compares and hashes them
    structurally. *)

(** A pending shared-memory instruction of a processor.  [Read i] and
    [Write (i, v)] address the processor's private register index [i]. *)
type 'v operation = Read of int | Write of int * 'v

exception Fallback
(** Raised by a flat machine's [step] {e before mutating anything} when
    the next transition does not fit its packed representation (e.g. a
    consensus view outgrowing its preallocated capacity).  The driver
    synchronizes the boxed state, replays the refused step through the
    boxed transition functions on the processor already picked, and
    finishes the run on the boxed interpreter from the next time step —
    so the executed schedule is identical either way. *)

(** The step-into-preallocated-buffers execution interface — the
    hardware-floor core.  A flat machine owns unboxed (int-array) mirrors
    of the registers and local states and advances them in place; the
    boxed {!S} transition functions remain the specification and the shim
    for everything the flat representation cannot hold.

    Conventions shared by every machine:
    - processors and physical registers are identified by ints; the
      machine routed every private index through the wiring at creation
      (the [phys] array), so drivers never see private indices;
    - [peek p] encodes the pending operation as
      [phys_reg * 2 + (1 if write)] and returns [-1] when [p] has halted;
    - [step]/[step_omit]/[step_stale] perform one scheduler step:
      the real operation, a dropped write (local state advances, the
      register keeps its value), or a read served from the register's
      previous value (the machine maintains its own previous-value
      shadow, updated on every successful write);
    - [reset p] is crash-recovery: local state back to [init inputs.(p)];
    - [value r] materializes physical register [r] as a boxed value —
      registers untouched since creation alias the original boxed value,
      written ones are rebuilt from the flat words (the machine tracks a
      dirty mask of written registers for exactly this);
    - [sync ()] writes the flat state back into the boxed [registers]
      and [locals] arrays the machine was created over, after which the
      boxed state is exactly what the boxed path would have produced
      (byte-for-byte; the differential suite pins this);
    - [total] machines never raise {!Fallback}. *)
type 'value flat = {
  total : bool;
  peek : int -> int;
  step : int -> unit;
  step_omit : int -> unit;
  step_stale : int -> unit;
  reset : int -> unit;
  halted : int -> bool;
  value : int -> 'value;
  sync : unit -> unit;
}

module type S = sig
  type cfg
  (** Static parameters of an instance — at minimum the number of
      processors [N] (which processors know) and of registers [M]. *)

  type value
  (** Contents of a shared register. *)

  type input
  type output

  type local
  (** Private state of one processor.  Must be canonical: structural
      equality must coincide with semantic equality. *)

  val name : string

  val processors : cfg -> int
  (** [N], the number of processors, known to the program. *)

  val registers : cfg -> int
  (** [M], the number of shared registers. *)

  val register_init : cfg -> value
  (** The known default value every register initially holds. *)

  val init : cfg -> input -> local
  (** The designated initial local state.  Anonymity: this function is the
      same for all processors and never sees a processor identifier. *)

  val next : cfg -> local -> value operation option
  (** The pending operation, or [None] when the processor has terminated
      (takes no further steps). *)

  val halted : cfg -> local -> bool
  (** [halted cfg l] iff [next cfg l = None].  The execution loops poll
      this every step; implementations answer from a field test instead of
      constructing {!next}'s result, keeping the polling allocation-free. *)

  val apply_read : cfg -> local -> reg:int -> value -> local
  (** State after the pending [Read reg] returned [value]. *)

  val apply_write : cfg -> local -> local
  (** State after the pending [Write] took effect. *)

  val output : cfg -> local -> output option
  (** The processor's write-once output, if it has produced one.  For
      single-shot tasks this becomes non-[None] exactly when {!next}
      becomes [None]. *)

  val flat :
    cfg ->
    phys:int array ->
    inputs:input array ->
    registers:value array ->
    locals:local array ->
    value flat option
  (** Build a flat machine over the given boxed state, or [None] when the
      current state does not fit the packed representation (views outside
      the bitset window, oversized instances, …) — the caller then stays
      on the boxed path.  [phys.(p * M + i)] is the physical register
      behind processor [p]'s private index [i] (the wiring, flattened).
      The machine reads [registers]/[locals] at creation and writes them
      back on [sync]; between the two, the boxed arrays are stale. *)

  val pp_value : cfg -> value Fmt.t
  val pp_local : cfg -> local Fmt.t
  val pp_output : cfg -> output Fmt.t
end
