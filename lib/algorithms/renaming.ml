(** Figure 4: adaptive renaming from group snapshots, after Bar-Noy and
    Dolev (1989).

    A processor runs the Figure-3 snapshot algorithm with its group
    identifier as input.  From its snapshot [S] of size [z] it computes its
    rank [r] — the 1-based position of its own group identifier in the
    sorted order of [S] — and takes the name [z(z-1)/2 + r].  Name 1 is
    thus reserved for the snapshot of size 1, names 2–3 for snapshots of
    size 2, names 4–6 for size 3, and so on; with [M] participating groups
    all names fall in [1 .. M(M+1)/2].

    With a {e group} solution to the snapshot task, two processors of the
    same group may obtain incomparable snapshots — and then possibly the
    same name, which group solvability allows.  The subtle point proved in
    Section 6 of the paper is that processors of {e different} groups can
    never collide: incomparable snapshots only arise within one group, and
    the sizes they span are "reserved" by that group.
    {!Tasks.Renaming_task} checks exactly this. *)

open Repro_util

type cfg = Snapshot.cfg = { n : int; m : int; write_order : Snapshot_core.write_order }

let cfg = Snapshot.cfg
let standard ~n = Snapshot.standard ~n

type value = Snapshot.value
type input = int

type output = { name_out : int; size : int; rank : int; snapshot : Iset.t }
(** The chosen name together with the snapshot it was derived from, kept
    for the validity checks of the test-suite. *)

type local = { group : int; core : Snapshot.local }

let name = "renaming(fig4)"
let processors = Snapshot.processors
let registers = Snapshot.registers
let register_init = Snapshot.register_init
let init c input = { group = input; core = Snapshot.init c input }

let halted c l = Snapshot.halted c l.core

let next c l =
  match Snapshot.next c l.core with None -> None | Some op -> Some op

let apply_read c l ~reg v = { l with core = Snapshot.apply_read c l.core ~reg v }
let apply_write c l = { l with core = Snapshot.apply_write c l.core }

(* Renaming is the snapshot engine verbatim at execution time — [group]
   is pinned at init and only read when the output is materialized — so
   its flat machine is the shared engine over the [core] component. *)
let flat c ~phys ~inputs ~registers ~locals =
  Snapshot.flat_core c ~phys ~registers ~core_inputs:inputs
    ~get:(fun p -> locals.(p).core)
    ~set:(fun p core -> locals.(p) <- { (locals.(p)) with core })

let name_of_snapshot ~group snapshot =
  match Iset.rank group snapshot with
  | None ->
      invalid_arg "Renaming.name_of_snapshot: own group missing from snapshot"
  | Some rank ->
      let size = Iset.cardinal snapshot in
      { name_out = (size * (size - 1) / 2) + rank; size; rank; snapshot }

let output c l =
  match Snapshot.output c l.core with
  | None -> None
  | Some snapshot -> Some (name_of_snapshot ~group:l.group snapshot)

let max_name ~groups = groups * (groups + 1) / 2
(** The adaptive bound [M(M+1)/2] when [M] groups participate. *)

let pp_value = Snapshot.pp_value
let pp_local c ppf l = Fmt.pf ppf "g%d:%a" l.group (Snapshot.pp_local c) l.core

let pp_output _ ppf o =
  Fmt.pf ppf "name=%d (size=%d rank=%d snap=%a)" o.name_out o.size o.rank
    Iset.pp_set o.snapshot
