(** Fuzzing targets: a protocol bundled with its task oracle.

    A target packages an {!Anonmem.Protocol.S} instance (with integer
    inputs, interpreted as group identifiers throughout the library) with
    everything the harness needs to generate and judge executions of it:
    how to build a configuration, how many registers the standard
    instantiation uses, the task oracle over (possibly partial) outcomes,
    and the per-processor step budget implied by its progress guarantee.

    The oracle receives partial outcomes: a processor that was never
    scheduled has [participated = false] and [output = None].  This is
    sound for every task in the library — a processor that took no step
    wrote nothing, so its input cannot appear in anyone's view — and it is
    what makes crash-prone and ultimately-periodic adversaries checkable. *)

module type S = sig
  module P : Anonmem.Protocol.S with type input = int

  val cfg : n:int -> m:int -> P.cfg

  val max_registers : int
  (** The largest register count {!cfg} accepts, so a front end can
      refuse a larger one as a usage error before any case runs. *)

  val m_range : n:int -> int * int
  (** Register counts worth fuzzing for [n] processors.  The paper's
      algorithms are specified for [m = n], so their range is [(n, n)];
      baselines whose defects only surface when processors share registers
      (double collect under the Figure-2 adversary runs 5 processors on 3
      registers) extend the range below [n]. *)

  val check :
    inputs:int array ->
    participated:bool array ->
    outputs:P.output option array ->
    (unit, Tasks.Task_failure.t) result
  (** The task oracle over a (possibly partial) outcome. *)

  val step_budget : n:int -> m:int -> int option
  (** Per-processor step budget implied by the protocol's progress
      guarantee: a processor that takes this many steps without halting
      violates wait-freedom.  [None] for protocols that only guarantee
      obstruction-freedom (or less) — the harness then checks safety
      only. *)
end
