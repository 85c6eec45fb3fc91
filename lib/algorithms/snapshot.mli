(** Figure 3: the wait-free solution to the snapshot task in the
    fully-anonymous model — the paper's main algorithmic contribution.

    Registers hold [(view, level)] records.  A processor raises its level
    only across scans in which it read exactly its own view in every
    register — and then only to one more than the minimum level it read —
    and resets it to 0 otherwise.  It terminates, outputting its view as
    its snapshot, upon completing a scan at level [N].

    The algorithm group-solves the snapshot task (Definition 3.4) and in
    fact guarantees that {e all} outputs are related by containment
    (Section 5.3.2); {!Tasks.Snapshot_task} checks both.  Wait-freedom
    holds under every wiring and schedule (Section 5.3.3); the model
    checker verifies it exhaustively for small [N].

    This module implements {!Anonmem.Protocol.S} and is typically driven
    through [Anonmem.System.Make (Algorithms.Snapshot)] or the high-level
    [Core.solve_snapshot]. *)

open Repro_util

(** The underlying write–scan-with-levels engine, shared with the
    long-lived variant; exposed for the model checker's codecs. *)
module Core : module type of Snapshot_core.Make (Iset)

type write_order = Snapshot_core.write_order = Cyclic | Any

type cfg = Core.cfg = { n : int; m : int; write_order : write_order }

val cfg : n:int -> m:int -> cfg
(** General configuration; the Section-2.1 demo uses [m = n - 1]. *)

val standard : n:int -> cfg
(** The paper's instantiation: as many registers as processors. *)

type value = Core.value = { view : Iset.t; level : int }
(** Register contents: a view and the writer's level at write time. *)

type input = int
(** The processor's group identifier. *)

type output = Iset.t
(** The snapshot: a set of participating group identifiers. *)

type local = Core.local

val name : string
val processors : cfg -> int
val registers : cfg -> int
val register_init : cfg -> value
val init : cfg -> input -> local
(** Raises [Invalid_argument] under the [Any] write order: the step
    machine takes the lowest unwritten register, which is the cyclic
    order; only the model checker branches on Figure 3's choice. *)

val terminated : cfg -> local -> bool
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
(** The int-machine twin of the engine (see {!Anonmem.Protocol.flat}):
    views as bitset words, total (never falls back).  [None] when the
    instance or a view exceeds the 62-bit window. *)

val flat_core :
  cfg ->
  phys:int array ->
  registers:value array ->
  core_inputs:int array ->
  get:(int -> local) ->
  set:(int -> local -> unit) ->
  value Anonmem.Protocol.flat option
(** The engine behind {!flat}, shared with {!Renaming}: the client's
    local state embeds a [local] reached through [get]/[set];
    [core_inputs] are the engine inputs used on crash-recovery reset. *)

val level_of_local : local -> int
(** The current level, in [0..n]; used by the analyses and tests. *)

val view_of_local : local -> Iset.t
val pp_value : cfg -> value Fmt.t
val pp_local : cfg -> local Fmt.t
val pp_output : cfg -> output Fmt.t
