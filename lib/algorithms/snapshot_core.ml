(** The write–scan-with-levels engine shared by the snapshot algorithm
    (Figure 3), its long-lived variant (Section 7), the renaming algorithm
    (Figure 4, which runs on top of the snapshot) and the consensus
    algorithm (Figure 5, which runs on top of the long-lived snapshot).

    The engine is parametric in the element type of views: the snapshot and
    renaming tasks use integer inputs (group identifiers) while consensus
    stores (value, timestamp) pairs.

    One round of the engine is:
    {ul
    {- {e write phase}: write the record [(view, level)] to the next
       register of a private cyclic order (each register is written once
       before any is written twice — the fairness required by the paper);}
    {- {e scan phase}: read all [M] registers one by one; if every register
       contained exactly the current view, the level becomes the minimum
       level read plus one, otherwise it resets to 0; finally all values
       read are added to the view.}}

    Termination policies differ between clients and are layered on top:
    Figure 3 terminates at level [N]; the long-lived variant resets the
    level on each new invocation; Figure 1's plain write–scan loop does not
    use levels at all and is implemented separately
    ({!module:Write_scan}). *)

open Repro_util

module Make (Vset : Sorted_set.S) = struct
  module Vset = Vset
  (** Re-exported so clients can name the view type as [Core.Vset.t]. *)

  type cfg = { n : int; m : int }
  (** [n] processors (the termination level of Figure 3), [m] registers.
      The paper uses [m = n]; the Section 2.1 lower-bound demonstration
      instantiates [m = n - 1]. *)

  let cfg ~n ~m =
    if n < 1 then invalid_arg "Snapshot_core.cfg: need at least 1 processor";
    if m < 1 then invalid_arg "Snapshot_core.cfg: need at least 1 register";
    { n; m }

  type value = { view : Vset.t; level : int }

  (** Scan bookkeeping.  The paper's pseudocode accumulates the reads of a
      scan and folds them into the view only when the scan completes; here
      reads are folded into the view immediately.  The two are observably
      equivalent — the view is externally visible only through writes, a
      processor never writes mid-scan, and the [all_own] comparisons are
      unaffected (while [all_own] holds every read equals the view, so the
      view has not grown; once it fails its result no longer matters) —
      and dropping the separate accumulator shrinks the model checker's
      state space by an order of magnitude.  [min_level] is meaningful only
      while [all_own] holds and is pinned to 0 otherwise, for the same
      canonicalization reason. *)
  type scan = { pos : int; all_own : bool; min_level : int }

  type phase = Writing | Scanning of scan

  type local = {
    view : Vset.t;
    level : int;
    next_write : int;  (** next private register index in the cyclic order *)
    phase : phase;
  }

  let register_init _cfg = { view = Vset.empty; level = 0 }

  let init _cfg input =
    { view = Vset.singleton input; level = 0; next_write = 0; phase = Writing }

  (** The pending operation of a processor that has not terminated.  The
      engine itself never terminates; clients decide when to stop asking. *)
  let next _cfg l =
    match l.phase with
    | Writing ->
        Anonmem.Protocol.Write (l.next_write, { view = l.view; level = l.level })
    | Scanning { pos; _ } -> Anonmem.Protocol.Read pos

  let apply_write cfg l =
    match l.phase with
    | Scanning _ -> invalid_arg "Snapshot_core.apply_write: not writing"
    | Writing ->
        {
          l with
          next_write = (l.next_write + 1) mod cfg.m;
          phase =
            Scanning
              (* Levels in registers never exceed [n], so [n] is the
                 identity for the running minimum. *)
              { pos = 0; all_own = true; min_level = cfg.n };
        }

  let apply_read cfg l ~reg (v : value) =
    match l.phase with
    | Writing -> invalid_arg "Snapshot_core.apply_read: not scanning"
    | Scanning s ->
        if reg <> s.pos then invalid_arg "Snapshot_core.apply_read: wrong register";
        let all_own = s.all_own && Vset.equal v.view l.view in
        (* While [all_own] holds the read equals the view, so the union is
           the view itself; afterwards reads fold in immediately (see the
           comment on [scan]). *)
        let view = if all_own then l.view else Vset.union l.view v.view in
        let s =
          {
            pos = s.pos + 1;
            all_own;
            min_level = (if all_own then Int.min s.min_level v.level else 0);
          }
        in
        if s.pos < cfg.m then { l with view; phase = Scanning s }
        else
          (* Scan complete: the level becomes one more than the minimum
             level read when every register held exactly the scan-start
             view (lines 20–24 of Figure 3), capped at [n], the
             termination level. *)
          let level = if s.all_own then Int.min (s.min_level + 1) cfg.n else 0 in
          { l with view; level; phase = Writing }

  (** Whether the processor is between rounds (about to write).  Level-based
      termination decisions are made only at this point, right after a scan
      completed. *)
  let at_round_boundary l = l.phase = Writing

  let reached_level cfg l = at_round_boundary l && l.level >= cfg.n

  (** A new invocation of the long-lived variant (Section 7): keep all
      state, add the new input to the view, reset the level to 0. *)
  let invoke _cfg l input =
    { l with view = Vset.add input l.view; level = 0 }

  let pp_velt pp_elt ppf (v : value) =
    Fmt.pf ppf "(%a,%d)" (Vset.pp pp_elt) v.view v.level

  let pp_local pp_elt ppf l =
    let pp_phase ppf = function
      | Writing -> Fmt.pf ppf "write#%d" l.next_write
      | Scanning { pos; all_own; _ } ->
          Fmt.pf ppf "scan@%d%s" pos (if all_own then "=" else "!")
    in
    Fmt.pf ppf "{view=%a level=%d %a}" (Vset.pp pp_elt) l.view l.level pp_phase
      l.phase
end
