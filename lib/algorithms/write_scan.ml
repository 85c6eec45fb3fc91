(** Figure 1: the plain write–scan loop.

    Each processor holds a view (initially the singleton of its input) and
    forever alternates between writing its view to the next register of a
    private fair cyclic order and scanning all registers, adding everything
    it reads to its view.  No processor ever terminates; the interest of
    this protocol is the structure of the views it can sustain forever —
    the eventual-pattern question of Section 4, answered by
    {!Analysis.Stable_views}. *)

open Repro_util

type cfg = { n : int; m : int }

let cfg ~n ~m =
  if n < 1 || m < 1 then invalid_arg "Write_scan.cfg";
  { n; m }

type value = Iset.t
type input = int
type output = |
(** This protocol produces no outputs; the type is uninhabited. *)

(* Reads are folded into the view immediately rather than accumulated until
   the scan ends; the two are observably equivalent (the view is only
   externally visible through writes, and a processor never writes
   mid-scan) and the smaller local state keeps model checking cheap. *)
type scan = { pos : int }
type phase = Writing | Scanning of scan
type local = { view : Iset.t; next_write : int; phase : phase }

let name = "write-scan"
let processors cfg = cfg.n
let registers cfg = cfg.m
let register_init _ = Iset.empty
let init _ input = { view = Iset.singleton input; next_write = 0; phase = Writing }

let halted _ _ = false

let next _cfg l =
  match l.phase with
  | Writing -> Some (Anonmem.Protocol.Write (l.next_write, l.view))
  | Scanning { pos; _ } -> Some (Anonmem.Protocol.Read pos)

let apply_write cfg l =
  match l.phase with
  | Scanning _ -> invalid_arg "Write_scan.apply_write: not writing"
  | Writing ->
      {
        l with
        next_write = (l.next_write + 1) mod cfg.m;
        phase = Scanning { pos = 0 };
      }

let apply_read cfg l ~reg v =
  match l.phase with
  | Writing -> invalid_arg "Write_scan.apply_read: not scanning"
  | Scanning s ->
      if reg <> s.pos then invalid_arg "Write_scan.apply_read: wrong register";
      let view = Iset.union l.view v in
      if s.pos + 1 < cfg.m then
        { l with view; phase = Scanning { pos = s.pos + 1 } }
      else { l with view; phase = Writing }

let output _ _ = None

(* No flat machine: every run of this protocol is observed or stepped by
   hand, so the boxed paths run it. *)
let flat _ ~phys:_ ~inputs:_ ~registers:_ ~locals:_ = None

let view_of_local l = l.view
let at_round_boundary l = l.phase = Writing
let pp_value _ = Iset.pp_set

let pp_local _ ppf l =
  let pp_phase ppf = function
    | Writing -> Fmt.pf ppf "write#%d" l.next_write
    | Scanning { pos; _ } -> Fmt.pf ppf "scan@%d" pos
  in
  Fmt.pf ppf "{view=%a %a}" Iset.pp_set l.view pp_phase l.phase

let pp_output _ _ppf (o : output) = match o with _ -> .
