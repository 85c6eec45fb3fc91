(** Figure 5: obstruction-free consensus by derandomizing Chandra's
    shared-coin algorithm over the long-lived snapshot, following
    Guerraoui and Ruppert (2005).

    Each processor maintains a preference and a monotonically increasing
    timestamp, repeatedly invokes the long-lived snapshot with the pair
    [(preference, timestamp)], and decides a value once it leads every
    rival by at least 2 — where a value absent from the snapshot counts as
    having timestamp 0, exactly as in Chandra's racing formulation where
    both counters exist from the start.  That reading is essential: with
    "absent rival ⇒ decide", the bounded model checker exhibits a
    two-processor disagreement (see {!resolve} in the implementation and
    EXPERIMENTS.md).

    Safety (agreement and validity) holds in every execution; termination
    is obstruction-free — a processor that eventually runs alone decides.
    All communication goes through the embedded long-lived snapshot; the
    consensus layer never touches a register directly.

    Implements {!Anonmem.Protocol.S}; drive it through
    [Anonmem.System.Make (Algorithms.Consensus)] or the terminating driver
    [Core.solve_consensus]. *)

open Repro_util

(** View elements: [(value, timestamp)] pairs. *)
module Pref : sig
  type t = int * int

  val compare : t -> t -> int
end

module Pset : module type of Sorted_set.Make (Pref)

module Pref_pp : sig
  val pp_elt : Pref.t Fmt.t
end

(** The embedded long-lived snapshot over [(value, timestamp)] views. *)
module Snap : module type of Long_lived_snapshot.Make (Pset) (Pref_pp)

type cfg = Snap.cfg = { n : int; m : int; write_order : Snapshot_core.write_order }

val cfg : n:int -> m:int -> cfg
val standard : n:int -> cfg

type value = Snap.value
type input = int
type output = int

type local = {
  input : int;
  pref : int;
  ts : int;
  decided : int option;
  rounds : int;  (** completed snapshot invocations, for diagnostics *)
  snap : Snap.local;
}

val name : string
val processors : cfg -> int
val registers : cfg -> int
val register_init : cfg -> value
val init : cfg -> input -> local
val halted : cfg -> local -> bool
val next : cfg -> local -> value Anonmem.Protocol.operation option
val apply_read : cfg -> local -> reg:int -> value -> local
val apply_write : cfg -> local -> local
val output : cfg -> local -> output option

val flat :
  cfg ->
  phys:int array ->
  inputs:input array ->
  registers:value array ->
  locals:local array ->
  value Anonmem.Protocol.flat option

val leaders : Pset.t -> (int * int) list
(** Highest timestamp carried by each value in a snapshot. *)

val resolve : Pset.t -> [ `Decide of int | `Adopt of int * int ]
(** The decision rule applied to a completed snapshot: decide the leader
    if it is ≥ 2 ahead of every rival (absent rivals count as 0), else
    adopt it with the next timestamp. *)

val rounds_of_local : local -> int
val pp_value : cfg -> value Fmt.t
val pp_local : cfg -> local Fmt.t
val pp_output : cfg -> output Fmt.t
