(** Figure 4: adaptive renaming from group snapshots, after Bar-Noy and
    Dolev (1989).

    A processor runs the Figure-3 snapshot with its group identifier as
    input; from its snapshot [S] of size [z] and its 1-based rank [r]
    within the sorted order of [S] it takes the name [z(z-1)/2 + r].  With
    [M] participating groups all names fall in [1 .. M(M+1)/2], processors
    of different groups never share a name (the subtle Section-6
    guarantee), and same-group sharing — which group solvability permits —
    can occur.  The algorithm is adaptive: it never needs to know how many
    groups exist.

    Implements {!Anonmem.Protocol.S}; drive it through
    [Anonmem.System.Make (Algorithms.Renaming)] or [Core.solve_renaming]. *)

open Repro_util

type cfg = Snapshot.cfg = { n : int; m : int; write_order : Snapshot_core.write_order }

val cfg : n:int -> m:int -> cfg
val standard : n:int -> cfg

type value = Snapshot.value
type input = int

type output = { name_out : int; size : int; rank : int; snapshot : Iset.t }
(** The chosen name together with the snapshot it was derived from
    ([name_out = size*(size-1)/2 + rank]), kept for validation. *)

type local = { group : int; core : Snapshot.local }

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

val name_of_snapshot : group:int -> Iset.t -> output
(** The Bar-Noy–Dolev rank rule in isolation; raises [Invalid_argument]
    when [group] is not in the snapshot. *)

val max_name : groups:int -> int
(** The adaptive bound [M(M+1)/2]. *)

val pp_value : cfg -> value Fmt.t
val pp_local : cfg -> local Fmt.t
val pp_output : cfg -> output Fmt.t
