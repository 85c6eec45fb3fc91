(** Figure 3: the wait-free solution to the snapshot task in the
    fully-anonymous model.

    Registers hold [(view, level)] records.  A processor raises its level
    only across scans in which it read exactly its own view in every
    register — and then only to one more than the minimum level it read —
    and resets it to 0 otherwise.  It terminates, outputting its view as
    snapshot, upon completing a scan with level [N].

    The algorithm group-solves the snapshot task (Definition 3.4) and in
    fact guarantees the stronger property that {e all} outputs are related
    by containment (Section 5.3.2), which {!Tasks.Snapshot_task} checks. *)

open Repro_util
module Core = Snapshot_core.Make (Iset)

type write_order = Snapshot_core.write_order = Cyclic | Any
type cfg = Core.cfg = { n : int; m : int; write_order : write_order }

let cfg = Core.cfg

let standard ~n = Core.cfg ~n ~m:n
(** The paper's instantiation: as many registers as processors. *)

type value = Core.value = { view : Iset.t; level : int }
type input = int
type output = Iset.t
type local = Core.local

let name = "snapshot(fig3)"
let processors (c : cfg) = c.n
let registers (c : cfg) = c.m
let register_init = Core.register_init
let init c input =
  Core.cyclic_only "Snapshot.init" c;
  Core.init c input

let terminated c (l : local) = Core.reached_level c l
let halted = terminated
let next c l = if terminated c l then None else Some (Core.next c l)
let apply_read = Core.apply_read
let apply_write = Core.apply_write
let output c (l : local) = if terminated c l then Some l.Core.view else None

(* The flat (int-machine) twin of the engine: views as bitset words in
   parallel int arrays, locals as struct-of-arrays, phase encoded in the
   scan position ([-1] = Writing).  Exactly the transitions of
   {!Snapshot_core} with [Vset = Iset] restricted to the bitset window,
   where union is [lor] and set equality is word equality — which is why
   the machine is total: in-window views stay in-window under union.
   Shared with {!Renaming}, which runs this engine under a wrapper local
   type — hence the [get]/[set]/[core_inputs] indirection instead of a
   direct [locals] array. *)
let flat_core (c : cfg) ~(phys : int array) ~(registers : value array)
    ~(core_inputs : int array) ~(get : int -> local)
    ~(set : int -> local -> unit) : value Anonmem.Protocol.flat option =
  let n = c.n and m = c.m in
  let in_window i = 0 <= i && i < Bits.max_width in
  if n > Bits.max_width || m > Bits.max_width
     || not (Array.for_all in_window core_inputs)
     || not (List.for_all (fun p -> Core.is_cyclic (get p)) (List.init n Fun.id))
  then None
  else
    match
      ( Array.map (fun (v : value) -> Iset.to_bits v.view) registers,
        Array.init n (fun p -> Iset.to_bits (get p).Core.view) )
    with
    | exception Invalid_argument _ -> None (* a view outside the window *)
    | rview, lview ->
        let rlevel = Array.map (fun (v : value) -> v.level) registers in
        let llevel = Array.make n 0 in
        let lnext = Array.make n 0 in
        let lpos = Array.make n (-1) in
        let lall = Array.make n 0 in
        let lmin = Array.make n 0 in
        for p = 0 to n - 1 do
          let l = get p in
          llevel.(p) <- l.Core.level;
          lnext.(p) <- Core.cursor l;
          match l.Core.phase with
          | Core.Writing -> lpos.(p) <- -1
          | Core.Scanning { pos; all_own; min_level } ->
              lpos.(p) <- pos;
              lall.(p) <- (if all_own then 1 else 0);
              lmin.(p) <- min_level
        done;
        (* Previous-value shadow for stale reads, as in the boxed faulty
           interpreter: updated only on successful writes. *)
        let pview = Array.copy rview and plevel = Array.copy rlevel in
        let dirty = ref 0 in
        let peek p =
          let pos = lpos.(p) in
          if pos < 0 then
            if llevel.(p) >= n then -1
            else (phys.((p * m) + lnext.(p)) lsl 1) lor 1
          else phys.((p * m) + pos) lsl 1
        in
        (* One read transition with the register contents supplied — the
           real and stale steps differ only in which shadow they read. *)
        let do_read p vview vlevel =
          let all = lall.(p) = 1 && vview = lview.(p) in
          if all then (
            if vlevel < lmin.(p) then lmin.(p) <- vlevel)
          else begin
            lall.(p) <- 0;
            lmin.(p) <- 0;
            lview.(p) <- lview.(p) lor vview
          end;
          let pos = lpos.(p) + 1 in
          if pos < m then lpos.(p) <- pos
          else begin
            (* Scan complete: level from the minimum read, capped at n. *)
            llevel.(p) <-
              (if all then
                 let lv = lmin.(p) + 1 in
                 if lv > n then n else lv
               else 0);
            lpos.(p) <- -1
          end
        in
        let advance_write p =
          lnext.(p) <- (lnext.(p) + 1) mod m;
          lpos.(p) <- 0;
          lall.(p) <- 1;
          lmin.(p) <- n
        in
        let step p =
          let pos = lpos.(p) in
          if pos < 0 then begin
            let r = phys.((p * m) + lnext.(p)) in
            pview.(r) <- rview.(r);
            plevel.(r) <- rlevel.(r);
            rview.(r) <- lview.(p);
            rlevel.(r) <- llevel.(p);
            dirty := !dirty lor (1 lsl r);
            advance_write p
          end
          else
            let r = phys.((p * m) + pos) in
            do_read p rview.(r) rlevel.(r)
        in
        let step_stale p =
          let r = phys.((p * m) + lpos.(p)) in
          do_read p pview.(r) plevel.(r)
        in
        let reset p =
          lview.(p) <- 1 lsl core_inputs.(p);
          llevel.(p) <- 0;
          lnext.(p) <- 0;
          lpos.(p) <- -1
        in
        let halted p = lpos.(p) < 0 && llevel.(p) >= n in
        let value r =
          if !dirty land (1 lsl r) <> 0 then
            { view = Iset.of_bits rview.(r); level = rlevel.(r) }
          else registers.(r)
        in
        let sync () =
          List.iter
            (fun r ->
              registers.(r) <-
                { view = Iset.of_bits rview.(r); level = rlevel.(r) })
            (Bits.to_list !dirty);
          for p = 0 to n - 1 do
            set p
              {
                Core.view = Iset.of_bits lview.(p);
                level = llevel.(p);
                written = Bits.full lnext.(p);
                phase =
                  (if lpos.(p) < 0 then Core.Writing
                   else
                     Core.Scanning
                       {
                         pos = lpos.(p);
                         all_own = lall.(p) = 1;
                         min_level = lmin.(p);
                       });
              }
          done
        in
        Some
          {
            Anonmem.Protocol.total = true;
            peek;
            step;
            step_omit = advance_write;
            step_stale;
            reset;
            halted;
            value;
            sync;
          }

let flat c ~phys ~inputs ~registers ~locals =
  flat_core c ~phys ~registers ~core_inputs:inputs
    ~get:(fun p -> locals.(p))
    ~set:(fun p l -> locals.(p) <- l)
let level_of_local (l : local) = l.Core.level
let view_of_local (l : local) = l.Core.view
let pp_value _ = Core.pp_velt Fmt.int
let pp_local _ = Core.pp_local Fmt.int
let pp_output _ = Iset.pp_set
