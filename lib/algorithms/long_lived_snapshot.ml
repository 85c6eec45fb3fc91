(** Section 7: the long-lived variant of the snapshot algorithm.

    A processor that has produced a snapshot output can invoke the snapshot
    again with a new input: it keeps all of its local state (and the
    registers keep their contents), resets its level to 0 and adds the new
    input to its view.  The guarantees are: outputs contain only inputs of
    participating processors, each processor's output contains all the
    inputs it has used so far, and every two outputs are related by
    containment.

    Because the single-shot algorithm is wait-free, each invocation of this
    variant terminates too (the paper calls the construction non-blocking
    and obstruction-free; with our fair schedulers each invocation is in
    fact wait-free for the same reason as Figure 3).

    The module is a functor so that consensus can instantiate views over
    (value, timestamp) pairs; {!Int_views} is the ready-made integer
    instance. *)

open Repro_util

module Make (Vset : Sorted_set.S) (Pp : sig
  val pp_elt : Vset.elt Fmt.t
end) =
struct
  module Core = Snapshot_core.Make (Vset)

  type cfg = Core.cfg = { n : int; m : int; write_order : Snapshot_core.write_order }

  let cfg = Core.cfg
  let standard ~n = Core.cfg ~n ~m:n

  type value = Core.value
  type input = Vset.elt
  type output = Vset.t
  type local = Core.local

  let name = "long-lived-snapshot"
  let processors (c : cfg) = c.n
  let registers (c : cfg) = c.m
  let register_init = Core.register_init
  let init c input =
    Core.cyclic_only "Long_lived_snapshot.init" c;
    Core.init c input

  let ready c (l : local) = Core.reached_level c l
  (** The current invocation has terminated; its output is {!output_view}.
      The processor takes no steps until {!invoke} is called again. *)

  let halted = ready
  let next c l = if ready c l then None else Some (Core.next c l)
  let apply_read = Core.apply_read
  let apply_write = Core.apply_write
  let output c (l : local) = if ready c l then Some l.Core.view else None
  let output_view (l : local) = l.Core.view

  (* No flat machine yet: the boxed paths run this protocol. *)
  let flat _ ~phys:_ ~inputs:_ ~registers:_ ~locals:_ = None

  let invoke c (l : local) input =
    if not (ready c l) then
      invalid_arg "Long_lived_snapshot.invoke: previous invocation still running";
    Core.invoke c l input

  let pp_value _ ppf v = Core.pp_velt Pp.pp_elt ppf v
  let pp_local _ ppf l = Core.pp_local Pp.pp_elt ppf l
  let pp_output _ ppf o = Vset.pp Pp.pp_elt ppf o
end

module Int_views =
  Make
    (Iset)
    (struct
      let pp_elt = Fmt.int
    end)
