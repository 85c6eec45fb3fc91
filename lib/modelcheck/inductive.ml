(** Inductive-invariant checking for the Figure-3 snapshot; see the
    interface for the big picture.  Implementation notes:

    {ul
    {- The abstract checker quantifies register reads over the set
       [RegOK] of values admitted by the register clauses {e relative to
       the current processor profile} (coverage and mixed-comparability
       clauses constrain values through the processors' views).  The
       induction hypothesis guarantees that every register value of a
       concrete Inv-state lies in [RegOK], so replacing the register
       file by that quantification over-approximates every instance with
       [m ≥ 1] registers, any wiring and any schedule at once.  The scan
       position is likewise erased to a single [last] bit (does the next
       read complete the scan?): a concrete read at position [pos] of an
       [m]-register scan maps to the abstract read with
       [last = (pos = m - 1)], and both continuations are enumerated, so
       the abstraction is sound for all [m] simultaneously.}
    {- Obligations are discharged frame-decomposed.  After processor [p]
       steps, every unary processor clause needs rechecking only on
       [post_p]; register values other than a written one are unchanged;
       coverage of old values is preserved because views never shrink
       (the stepping processor's view only grows, everyone else is
       untouched) — so the only obligations are: unary clauses on
       [post_p]; unary/pairwise register clauses on a written value [w]
       against [RegOK]; mixed clauses pairing [RegOK ∪ {w}] with
       [post_p]; and, when binary processor or mixed clauses are
       present, pairwise checks of [post_p] (resp. [w]) against the
       unchanged processors.  The per-processor part depends only on
       [(own input, local, RegOK)], not on the rest of the assignment,
       and is memoized — for clause sets without binary processor
       clauses the enumeration is a pure memo sweep.  The concrete
       checker re-evaluates {e every} clause on {e every} successor with
       no frame shortcuts, cross-validating this decomposition at
       n = 2.}} *)

module Snap = Algorithms.Snapshot
module SC = Algorithms.Snapshot.Core
module E = Explorer.Make (Codecs.Snapshot)
module Replay = Witness.Replay (Codecs.Snapshot)
open Repro_util

(* ------------------------------------------------------------------ *)
(* Clause language                                                     *)
(* ------------------------------------------------------------------ *)

type clause =
  | Own_input_in_view
  | View_in_participants
  | Level_bounds
  | Scan_bounds
  | Reg_view_in_participants
  | Reg_level_bounds
  | Reg_nonempty_above of int
  | Reg_view_covered
  | Procs_comparable_above of int
  | Regs_comparable_above of int
  | Reg_proc_comparable_above of int * int

let clause_name = function
  | Own_input_in_view -> "own-input-in-view"
  | View_in_participants -> "view-in-participants"
  | Level_bounds -> "level-bounds"
  | Scan_bounds -> "scan-bounds"
  | Reg_view_in_participants -> "reg-view-in-participants"
  | Reg_level_bounds -> "reg-level-bounds"
  | Reg_nonempty_above k -> Fmt.str "reg-nonempty-ge:%d" k
  | Reg_view_covered -> "reg-view-covered"
  | Procs_comparable_above k -> Fmt.str "procs-comparable-ge:%d" k
  | Regs_comparable_above k -> Fmt.str "regs-comparable-ge:%d" k
  | Reg_proc_comparable_above (j, k) ->
      Fmt.str "reg-proc-comparable-ge:%d:%d" j k

let clause_of_name s =
  match String.split_on_char ':' s with
  | [ "own-input-in-view" ] -> Some Own_input_in_view
  | [ "view-in-participants" ] -> Some View_in_participants
  | [ "level-bounds" ] -> Some Level_bounds
  | [ "scan-bounds" ] -> Some Scan_bounds
  | [ "reg-view-in-participants" ] -> Some Reg_view_in_participants
  | [ "reg-level-bounds" ] -> Some Reg_level_bounds
  | [ "reg-nonempty-ge"; k ] ->
      Option.map (fun k -> Reg_nonempty_above k) (int_of_string_opt k)
  | [ "reg-view-covered" ] -> Some Reg_view_covered
  | [ "procs-comparable-ge"; k ] ->
      Option.map (fun k -> Procs_comparable_above k) (int_of_string_opt k)
  | [ "regs-comparable-ge"; k ] ->
      Option.map (fun k -> Regs_comparable_above k) (int_of_string_opt k)
  | [ "reg-proc-comparable-ge"; j; k ] -> (
      match (int_of_string_opt j, int_of_string_opt k) with
      | Some j, Some k -> Some (Reg_proc_comparable_above (j, k))
      | _ -> None)
  | _ -> None

let pp_clause ppf c = Fmt.string ppf (clause_name c)

let proved =
  [
    Own_input_in_view;
    View_in_participants;
    Level_bounds;
    Scan_bounds;
    Reg_view_in_participants;
    Reg_level_bounds;
    Reg_nonempty_above 1;
    Reg_view_covered;
  ]

let candidates =
  proved
  @ [
      Regs_comparable_above 1;
      Reg_proc_comparable_above (1, 1);
      Procs_comparable_above 1;
    ]

let parse_clauses s =
  match String.trim s with
  | "proved" -> Ok proved
  | "candidates" -> Ok candidates
  | s -> (
      let names =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      if names = [] then Error "empty clause list"
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest -> (
              match clause_of_name x with
              | Some c -> go (c :: acc) rest
              | None -> Error (Fmt.str "unknown clause %S" x))
        in
        go [] names)

(* ------------------------------------------------------------------ *)
(* Abstract configurations                                             *)
(* ------------------------------------------------------------------ *)

type aphase = Boundary | Scan of { all_own : bool; min_level : int; last : bool }
type aproc = { aview : int; alevel : int; aphase : aphase }
type areg = { rview : int; rlevel : int }

type astep = Write_step of areg * bool | Read_step of areg * bool option

type acti = {
  a_clause : clause;
  a_inputs : int array;
  a_pid : int;
  a_step : astep option;
  a_regs : areg list;
  a_pre : aproc array;
  a_post : aproc array;
}

(* The evaluation context: participant mask and per-processor own-input
   bit, precomputed from the inputs. *)
type ctx = { n : int; parts : int; own : int array }

let make_ctx ~n inputs =
  {
    n;
    parts = Array.fold_left (fun acc g -> acc lor (1 lsl g)) 0 inputs;
    own = Array.map (fun g -> 1 lsl g) inputs;
  }

let subset_bits a b = a land lnot b = 0
let comparable_bits a b = subset_bits a b || subset_bits b a

let committed p =
  match p.aphase with Scan { all_own = false; _ } -> 0 | _ -> p.alevel

(* Clause classification: which quantifier shape discharges it. *)
type kind = Proc1 | Proc2 | Reg1 | Reg2 | Cover | Mixed

let kind_of = function
  | Own_input_in_view | View_in_participants | Level_bounds | Scan_bounds ->
      Proc1
  | Reg_view_in_participants | Reg_level_bounds | Reg_nonempty_above _ -> Reg1
  | Reg_view_covered -> Cover
  | Procs_comparable_above _ -> Proc2
  | Regs_comparable_above _ -> Reg2
  | Reg_proc_comparable_above _ -> Mixed

let proc1_holds ctx ~own c p =
  match c with
  | Own_input_in_view -> p.aview land own <> 0
  | View_in_participants -> subset_bits p.aview ctx.parts
  | Level_bounds -> 0 <= p.alevel && p.alevel <= ctx.n
  | Scan_bounds -> (
      match p.aphase with
      | Boundary -> true
      | Scan { all_own; min_level; _ } ->
          0 <= min_level && min_level <= ctx.n && (all_own || min_level = 0))
  | _ -> true

let proc2_holds c p q =
  match c with
  | Procs_comparable_above k ->
      committed p < k || committed q < k || comparable_bits p.aview q.aview
  | _ -> true

let reg1_holds ctx c r =
  match c with
  | Reg_view_in_participants -> subset_bits r.rview ctx.parts
  | Reg_level_bounds -> 0 <= r.rlevel && r.rlevel <= ctx.n
  | Reg_nonempty_above k -> r.rlevel < k || r.rview <> 0
  | _ -> true

let reg2_holds c r r' =
  match c with
  | Regs_comparable_above k ->
      r.rlevel < k || r'.rlevel < k || comparable_bits r.rview r'.rview
  | _ -> true

let cover_holds c r procs =
  match c with
  | Reg_view_covered ->
      r.rview = 0 || Array.exists (fun p -> subset_bits r.rview p.aview) procs
  | _ -> true

let mixed_holds c r p =
  match c with
  | Reg_proc_comparable_above (j, k) ->
      r.rlevel < j || committed p < k || comparable_bits r.rview p.aview
  | _ -> true

(* Full-configuration evaluation: first clause violated by [(procs, regs)]
   under [ctx], in clause-list order.  Used for the Init obligation, the
   concrete checker, and the fast concrete-state evaluator. *)
let config_violation ctx clauses procs regs =
  let holds c =
    match kind_of c with
    | Proc1 ->
        let ok = ref true in
        Array.iteri
          (fun i p -> if not (proc1_holds ctx ~own:ctx.own.(i) c p) then ok := false)
          procs;
        !ok
    | Proc2 ->
        let n = Array.length procs in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if not (proc2_holds c procs.(i) procs.(j)) then ok := false
          done
        done;
        !ok
    | Reg1 -> Array.for_all (reg1_holds ctx c) regs
    | Reg2 ->
        let m = Array.length regs in
        let ok = ref true in
        for i = 0 to m - 1 do
          for j = i + 1 to m - 1 do
            if not (reg2_holds c regs.(i) regs.(j)) then ok := false
          done
        done;
        !ok
    | Cover -> Array.for_all (fun r -> cover_holds c r procs) regs
    | Mixed ->
        Array.for_all (fun r -> Array.for_all (mixed_holds c r) procs) regs
  in
  List.find_opt (fun c -> not (holds c)) clauses

(* ------------------------------------------------------------------ *)
(* Concrete-state adapters and the two evaluators                      *)
(* ------------------------------------------------------------------ *)

let aphase_of_local cfg (l : Snap.local) =
  match l.SC.phase with
  | SC.Writing -> Boundary
  | SC.Scanning s ->
      Scan
        {
          all_own = s.SC.all_own;
          min_level = s.SC.min_level;
          last = s.SC.pos = cfg.Snap.m - 1;
        }

let aproc_of_local cfg (l : Snap.local) =
  { aview = Iset.to_bits l.SC.view; alevel = l.SC.level; aphase = aphase_of_local cfg l }

let areg_of_value (v : Snap.value) =
  { rview = Iset.to_bits v.SC.view; rlevel = v.SC.level }

let state_violation ~cfg ~inputs clauses ~locals ~registers =
  let ctx = make_ctx ~n:cfg.Snap.n inputs in
  config_violation ctx clauses
    (Array.map (aproc_of_local cfg) locals)
    (Array.map areg_of_value registers)

(* The differential oracle: the same clauses evaluated straight off their
   interface glosses with Iset operations and list quantifiers — no
   bitmask tricks, no [ctx], no sharing with the checker above. *)
let naive_state_violation ~cfg ~inputs clauses ~locals ~registers =
  let n = cfg.Snap.n in
  let participants =
    Array.fold_left (fun s g -> Iset.add g s) Iset.empty inputs
  in
  let procs = Array.to_list locals
  and regs = Array.to_list registers
  and inps = Array.to_list inputs in
  let level_committed (l : Snap.local) =
    match l.SC.phase with
    | SC.Scanning s when not s.SC.all_own -> 0
    | _ -> l.SC.level
  in
  let holds = function
    | Own_input_in_view ->
        List.for_all2 (fun (l : Snap.local) g -> Iset.mem g l.SC.view) procs inps
    | View_in_participants ->
        List.for_all
          (fun (l : Snap.local) -> Iset.subset l.SC.view participants)
          procs
    | Level_bounds ->
        List.for_all (fun (l : Snap.local) -> 0 <= l.SC.level && l.SC.level <= n) procs
    | Scan_bounds ->
        List.for_all
          (fun (l : Snap.local) ->
            match l.SC.phase with
            | SC.Writing -> true
            | SC.Scanning s ->
                0 <= s.SC.min_level && s.SC.min_level <= n
                && (s.SC.all_own || s.SC.min_level = 0))
          procs
    | Reg_view_in_participants ->
        List.for_all
          (fun (v : Snap.value) -> Iset.subset v.SC.view participants)
          regs
    | Reg_level_bounds ->
        List.for_all (fun (v : Snap.value) -> 0 <= v.SC.level && v.SC.level <= n) regs
    | Reg_nonempty_above k ->
        List.for_all
          (fun (v : Snap.value) ->
            v.SC.level < k || not (Iset.is_empty v.SC.view))
          regs
    | Reg_view_covered ->
        List.for_all
          (fun (v : Snap.value) ->
            Iset.is_empty v.SC.view
            || List.exists
                 (fun (l : Snap.local) -> Iset.subset v.SC.view l.SC.view)
                 procs)
          regs
    | Procs_comparable_above k ->
        List.for_all
          (fun (p : Snap.local) ->
            List.for_all
              (fun (q : Snap.local) ->
                level_committed p < k || level_committed q < k
                || Iset.comparable p.SC.view q.SC.view)
              procs)
          procs
    | Regs_comparable_above k ->
        List.for_all
          (fun (r : Snap.value) ->
            List.for_all
              (fun (r' : Snap.value) ->
                r.SC.level < k || r'.SC.level < k
                || Iset.comparable r.SC.view r'.SC.view)
              regs)
          regs
    | Reg_proc_comparable_above (j, k) ->
        List.for_all
          (fun (r : Snap.value) ->
            List.for_all
              (fun (p : Snap.local) ->
                r.SC.level < j || level_committed p < k
                || Iset.comparable r.SC.view p.SC.view)
              procs)
          regs
  in
  List.find_opt (fun c -> not (holds c)) clauses

(* ------------------------------------------------------------------ *)
(* Input classes                                                       *)
(* ------------------------------------------------------------------ *)

(* Integer partitions of [n], each mapped to the input assignment that
   gives the first block input 1, the second input 2, …  Clause truth is
   invariant under input renaming and processor permutation, so one
   representative per partition covers every input assignment. *)
let input_classes n =
  let rec partitions n maxp =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun k -> List.map (fun rest -> k :: rest) (partitions (n - k) k))
        (List.init (min maxp n) (fun i -> min maxp n - i))
  in
  partitions n n
  |> List.map (fun blocks ->
         let a = Array.make n 0 in
         let idx = ref 0 and group = ref 0 in
         List.iter
           (fun b ->
             incr group;
             for _ = 1 to b do
               a.(!idx) <- !group;
               incr idx
             done)
           blocks;
         a)

(* ------------------------------------------------------------------ *)
(* Abstract universe enumeration                                       *)
(* ------------------------------------------------------------------ *)

let submasks mask =
  let rec go s acc =
    let acc = s :: acc in
    if s = 0 then acc else go ((s - 1) land mask) acc
  in
  go mask []

let syntactic_procs ctx =
  let phases =
    Boundary
    :: List.concat_map
         (fun last ->
           Scan { all_own = false; min_level = 0; last }
           :: List.init (ctx.n + 1) (fun mn ->
                  Scan { all_own = true; min_level = mn; last }))
         [ false; true ]
  in
  List.concat_map
    (fun aview ->
      List.concat_map
        (fun alevel -> List.map (fun aphase -> { aview; alevel; aphase }) phases)
        (List.init (ctx.n + 1) Fun.id))
    (submasks ctx.parts)

let syntactic_values ctx =
  List.concat_map
    (fun rview ->
      List.init (ctx.n + 1) (fun rlevel -> { rview; rlevel }))
    (submasks ctx.parts)

let proc1_clauses clauses = List.filter (fun c -> kind_of c = Proc1) clauses

let admitted_procs ctx clauses ~own =
  let p1 = proc1_clauses clauses in
  List.filter
    (fun p -> List.for_all (fun c -> proc1_holds ctx ~own c p) p1)
    (syntactic_procs ctx)

(* [RegOK] for a processor profile: values passing every register clause
   relative to those processors.  The profile is summarized by the set of
   distinct (view, committed-level) pairs — exactly what the coverage and
   mixed clauses can observe. *)
let regok_of_profile ctx clauses profile_procs values =
  List.filter
    (fun v ->
      List.for_all
        (fun c ->
          match kind_of c with
          | Reg1 -> reg1_holds ctx c v
          | Cover -> cover_holds c v profile_procs
          | Mixed -> Array.for_all (mixed_holds c v) profile_procs
          | _ -> true)
        clauses)
    values
  |> Array.of_list

(* All abstract single steps of [a], with reads quantified over [regok].
   A processor at the boundary with level ≥ n has terminated (Figure 3's
   stopping rule) and takes no step. *)
let successors_of ctx (a : aproc) (regok : areg array) =
  match a.aphase with
  | Boundary ->
      if a.alevel >= ctx.n then []
      else
        let w = { rview = a.aview; rlevel = a.alevel } in
        List.map
          (fun last ->
            ( Write_step (w, last),
              { a with aphase = Scan { all_own = true; min_level = ctx.n; last } }
            ))
          [ false; true ]
  | Scan s ->
      Array.to_list regok
      |> List.concat_map (fun v ->
             let all_own = s.all_own && v.rview = a.aview in
             let aview = if all_own then a.aview else a.aview lor v.rview in
             let mn = if all_own then min s.min_level v.rlevel else 0 in
             if s.last then
               let alevel = if all_own then min (mn + 1) ctx.n else 0 in
               [ (Read_step (v, None), { aview; alevel; aphase = Boundary }) ]
             else
               List.map
                 (fun last ->
                   ( Read_step (v, Some last),
                     {
                       aview;
                       alevel = a.alevel;
                       aphase = Scan { all_own; min_level = mn; last };
                     } ))
                 [ false; true ])

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_bits ppf bits = Iset.pp Fmt.int ppf (Iset.of_bits bits)

let pp_aproc ppf p =
  match p.aphase with
  | Boundary -> Fmt.pf ppf "⟨%a l%d wr⟩" pp_bits p.aview p.alevel
  | Scan { all_own; min_level; last } ->
      Fmt.pf ppf "⟨%a l%d sc%s%s m%d⟩" pp_bits p.aview p.alevel
        (if all_own then "=" else "!")
        (if last then "$" else "")
        min_level

let pp_areg ppf r = Fmt.pf ppf "(%a,%d)" pp_bits r.rview r.rlevel

let pp_astep ppf = function
  | Write_step (w, last) ->
      Fmt.pf ppf "write %a%s" pp_areg w (if last then " (1-reg scan)" else "")
  | Read_step (v, None) -> Fmt.pf ppf "final read %a" pp_areg v
  | Read_step (v, Some _) -> Fmt.pf ppf "read %a" pp_areg v

let pp_acti ppf cti =
  Fmt.pf ppf "@[<v>clause %a violated (inputs %a)@ " pp_clause cti.a_clause
    Fmt.(Dump.array int)
    cti.a_inputs;
  (match cti.a_step with
  | None -> Fmt.pf ppf "at the initial configuration:"
  | Some step -> Fmt.pf ppf "p%d takes %a:" cti.a_pid pp_astep step);
  Fmt.pf ppf "@ pre:  %a" Fmt.(array ~sep:sp pp_aproc) cti.a_pre;
  Fmt.pf ppf "@ post: %a" Fmt.(array ~sep:sp pp_aproc) cti.a_post;
  if cti.a_regs <> [] then
    Fmt.pf ppf "@ regs: %a" Fmt.(list ~sep:sp pp_areg) cti.a_regs;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  r_n : int;
  r_clauses : clause list;
  r_classes : int array list;
  r_syntactic : int;
  r_universe : int;
  r_transitions : int;
  r_init_ok : bool;
  r_ctis : acti list;
  r_cti_total : int;
  r_wall_s : float;
}

type abstract_result =
  | Proved of report
  | Refuted of report
  | Gave_up of { reason : Governor.reason; processed : int }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>n=%d clauses=[%a]@ %d input classes, %d syntactic / %d Inv \
     configurations, %d transitions@ init %s, %d CTI%s (%d shown), %.2fs@]"
    r.r_n
    Fmt.(list ~sep:comma pp_clause)
    r.r_clauses (List.length r.r_classes) r.r_syntactic r.r_universe
    r.r_transitions
    (if r.r_init_ok then "ok" else "VIOLATED")
    r.r_cti_total
    (if r.r_cti_total = 1 then "" else "s")
    (List.length r.r_ctis) r.r_wall_s

(* ------------------------------------------------------------------ *)
(* Checkpoint plumbing for the abstract checker                        *)
(* ------------------------------------------------------------------ *)

let clause_code = function
  | Own_input_in_view -> (0, 0, 0)
  | View_in_participants -> (1, 0, 0)
  | Level_bounds -> (2, 0, 0)
  | Scan_bounds -> (3, 0, 0)
  | Reg_view_in_participants -> (4, 0, 0)
  | Reg_level_bounds -> (5, 0, 0)
  | Reg_nonempty_above k -> (6, k, 0)
  | Reg_view_covered -> (7, 0, 0)
  | Procs_comparable_above k -> (8, k, 0)
  | Regs_comparable_above k -> (9, k, 0)
  | Reg_proc_comparable_above (j, k) -> (10, j, k)

let clause_of_code = function
  | 0, _, _ -> Own_input_in_view
  | 1, _, _ -> View_in_participants
  | 2, _, _ -> Level_bounds
  | 3, _, _ -> Scan_bounds
  | 4, _, _ -> Reg_view_in_participants
  | 5, _, _ -> Reg_level_bounds
  | 6, k, _ -> Reg_nonempty_above k
  | 7, _, _ -> Reg_view_covered
  | 8, k, _ -> Procs_comparable_above k
  | 9, k, _ -> Regs_comparable_above k
  | 10, j, k -> Reg_proc_comparable_above (j, k)
  | c, _, _ ->
      raise
        (Checkpoint.Corrupt_checkpoint (Fmt.str "inductive: clause code %d" c))

let aproc_to_ints p =
  let tag, mn, flags =
    match p.aphase with
    | Boundary -> (0, 0, 0)
    | Scan { all_own; min_level; last } ->
        (1, min_level, (if all_own then 1 else 0) lor (if last then 2 else 0))
  in
  [ p.aview; p.alevel; tag; mn; flags ]

let aproc_of_ints = function
  | [ aview; alevel; 0; _; _ ] -> { aview; alevel; aphase = Boundary }
  | [ aview; alevel; 1; mn; flags ] ->
      {
        aview;
        alevel;
        aphase =
          Scan
            {
              all_own = flags land 1 <> 0;
              min_level = mn;
              last = flags land 2 <> 0;
            };
      }
  | _ -> raise (Checkpoint.Corrupt_checkpoint "inductive: aproc image")

let cti_to_ints cti =
  let c0, c1, c2 = clause_code cti.a_clause in
  let step =
    match cti.a_step with
    | None -> [ 0; 0; 0; 0 ]
    | Some (Write_step (w, last)) ->
        [ 1; w.rview; w.rlevel; (if last then 1 else 0) ]
    | Some (Read_step (v, None)) -> [ 2; v.rview; v.rlevel; 0 ]
    | Some (Read_step (v, Some last)) ->
        [ 3; v.rview; v.rlevel; (if last then 1 else 0) ]
  in
  [ c0; c1; c2; Array.length cti.a_inputs ]
  @ Array.to_list cti.a_inputs @ [ cti.a_pid ] @ step
  @ [ List.length cti.a_regs ]
  @ List.concat_map (fun r -> [ r.rview; r.rlevel ]) cti.a_regs
  @ List.concat_map aproc_to_ints (Array.to_list cti.a_pre)
  @ List.concat_map aproc_to_ints (Array.to_list cti.a_post)

let cti_of_ints ints =
  let corrupt () =
    raise (Checkpoint.Corrupt_checkpoint "inductive: CTI image")
  in
  let take k xs =
    let rec go k acc xs =
      if k = 0 then (List.rev acc, xs)
      else match xs with [] -> corrupt () | x :: rest -> go (k - 1) (x :: acc) rest
    in
    go k [] xs
  in
  match ints with
  | c0 :: c1 :: c2 :: n :: rest ->
      let inputs, rest = take n rest in
      let (pid, step), rest =
        match rest with
        | pid :: 0 :: _ :: _ :: _ :: r -> (((pid, None) : int * astep option), r)
        | pid :: 1 :: rv :: rl :: f :: r ->
            ((pid, Some (Write_step ({ rview = rv; rlevel = rl }, f <> 0))), r)
        | pid :: 2 :: rv :: rl :: _ :: r ->
            ((pid, Some (Read_step ({ rview = rv; rlevel = rl }, None))), r)
        | pid :: 3 :: rv :: rl :: f :: r ->
            ((pid, Some (Read_step ({ rview = rv; rlevel = rl }, Some (f <> 0)))), r)
        | _ -> corrupt ()
      in
      let nregs, rest =
        match rest with k :: r -> (k, r) | [] -> corrupt ()
      in
      let regints, rest = take (2 * nregs) rest in
      let rec pair_up = function
        | [] -> []
        | rv :: rl :: r -> { rview = rv; rlevel = rl } :: pair_up r
        | _ -> corrupt ()
      in
      let preints, rest = take (5 * n) rest in
      let postints, rest = take (5 * n) rest in
      if rest <> [] then corrupt ();
      let rec procs = function
        | [] -> []
        | a :: b :: c :: d :: e :: r -> aproc_of_ints [ a; b; c; d; e ] :: procs r
        | _ -> corrupt ()
      in
      {
        a_clause = clause_of_code (c0, c1, c2);
        a_inputs = Array.of_list inputs;
        a_pid = pid;
        a_step = step;
        a_regs = pair_up regints;
        a_pre = Array.of_list (procs preints);
        a_post = Array.of_list (procs postints);
      }
  | _ -> corrupt ()

let ctis_to_bytes ctis =
  let ints =
    List.concat_map
      (fun cti ->
        let body = cti_to_ints cti in
        List.length body :: body)
      ctis
  in
  Checkpoint.bytes_of_ints (Array.of_list ints)

let ctis_of_bytes b =
  let ints = Array.to_list (Checkpoint.ints_of_bytes b) in
  let rec go acc = function
    | [] -> List.rev acc
    | len :: rest ->
        let rec take k acc' xs =
          if k = 0 then (List.rev acc', xs)
          else
            match xs with
            | [] ->
                raise
                  (Checkpoint.Corrupt_checkpoint "inductive: CTI list image")
            | x :: r -> take (k - 1) (x :: acc') r
        in
        let body, rest = take len [] rest in
        go (cti_of_ints body :: acc) rest
  in
  go [] ints

(* ------------------------------------------------------------------ *)
(* The abstract checker                                                *)
(* ------------------------------------------------------------------ *)

exception Stop_run of Governor.reason
exception Cti_cap

let check_abstract ?(max_ctis = 100) ?governor ?ckpt ?(resume = false) ~n
    clauses =
  if n < 1 then invalid_arg "Inductive.check_abstract: n < 1";
  if n > 16 then invalid_arg "Inductive.check_abstract: n > 16";
  let t0 = Unix.gettimeofday () in
  let classes = input_classes n in
  let context =
    Fmt.str "inductive-abs|%d|%s" n
      (String.concat "," (List.map clause_name clauses))
  in
  let who = "Inductive.check_abstract" in
  (* Resume: counters + CTIs found so far + the enumeration cursor
     (number of Inv assignments fully processed, in the deterministic
     class-by-class order below). *)
  let resumed, processed0, transitions0, cti_total0, init_ok0, ctis0 =
    match Checkpoint.resumable ~who ~context ~resume ckpt with
    | Some sections ->
        let c = Checkpoint.find_ints ~who ~count:4 "counters" sections in
        ( true,
          c.(0),
          c.(1),
          c.(2),
          c.(3) <> 0,
          ctis_of_bytes (Checkpoint.find "ctis" sections) )
    | None -> (false, 0, 0, 0, true, [])
  in
  let processed = ref processed0
  and transitions = ref transitions0
  and cti_total = ref cti_total0
  and init_ok = ref init_ok0
  and ctis = ref (List.rev ctis0)
  and to_skip = ref processed0 in
  let save_ckpt path =
    Checkpoint.save ~path
      [
        ("context", Bytes.of_string context);
        ( "counters",
          Checkpoint.bytes_of_ints
            [|
              !processed;
              !transitions;
              !cti_total;
              (if !init_ok then 1 else 0);
            |] );
        ("ctis", ctis_to_bytes (List.rev !ctis));
      ]
  in
  let durable = Checkpoint.run ?governor ckpt save_ckpt in
  let record_cti cti =
    incr cti_total;
    if List.length !ctis < max_ctis then ctis := cti :: !ctis;
    if !cti_total >= max_ctis then raise Cti_cap
  in
  let has_proc2 = List.exists (fun c -> kind_of c = Proc2) clauses in
  let has_mixed = List.exists (fun c -> kind_of c = Mixed) clauses in
  let has_reg2 = List.exists (fun c -> kind_of c = Reg2) clauses in
  let proc1s = proc1_clauses clauses in
  let syntactic = ref 0 in
  let run_class inputs =
    let ctx = make_ctx ~n inputs in
    let syn = syntactic_procs ctx in
    let syn_count = List.length syn in
    (* |syn|^n syntactic assignments for this class *)
    let pow = ref 1 in
    for _ = 1 to n do
      pow := !pow * syn_count
    done;
    syntactic := !syntactic + !pow;
    let adm =
      Array.init n (fun i ->
          Array.of_list
            (admitted_procs ctx clauses ~own:ctx.own.(i)))
    in
    let values = syntactic_values ctx in
    (* Init obligation for this class.  A checkpoint is taken at the top
       of a configuration, after its class's Init check, so on resume the
       restored [init_ok] and CTIs already account for every class up to
       the first configuration this call processes. *)
    if (not resumed) || !processed > processed0 then begin
      let init_procs =
        Array.init n (fun i -> { aview = ctx.own.(i); alevel = 0; aphase = Boundary })
      in
      match config_violation ctx clauses init_procs [| { rview = 0; rlevel = 0 } |] with
      | None -> ()
      | Some c ->
          init_ok := false;
          record_cti
            {
              a_clause = c;
              a_inputs = Array.copy inputs;
              a_pid = -1;
              a_step = None;
              a_regs = [ { rview = 0; rlevel = 0 } ];
              a_pre = init_procs;
              a_post = init_procs;
            }
    end;
    (* RegOK cache: profile (sorted distinct (view, committed) codes) ->
       (dense id, value array). *)
    let regok_cache : (int list, int * areg array) Hashtbl.t =
      Hashtbl.create 256
    in
    let regok_next = ref 0 in
    let profile_key procs =
      Array.to_list procs
      |> List.map (fun p -> (p.aview * (n + 2)) + committed p)
      |> List.sort_uniq compare
    in
    let regok_of procs =
      let key = profile_key procs in
      match Hashtbl.find_opt regok_cache key with
      | Some v -> v
      | None ->
          let id = !regok_next in
          incr regok_next;
          let arr = regok_of_profile ctx clauses procs values in
          Hashtbl.add regok_cache key (id, arr);
          (id, arr)
    in
    (* Memo of the profile-independent obligations of one processor:
       key (own-bit, local, RegOK id) -> (first failure, transitions).
       Boundary processors' solo obligations are RegOK-independent when
       no pairwise-register or mixed clause is present. *)
    let solo_cache :
        (int * aproc * int, (astep * aproc * clause * areg list) option * int)
        Hashtbl.t =
      Hashtbl.create (1 lsl 16)
    in
    let solo_check ~own a regok =
      let trans = ref 0 in
      let fail = ref None in
      List.iter
        (fun (step, post) ->
          incr trans;
          if !fail = None then begin
            (match
               List.find_opt
                 (fun c -> not (proc1_holds ctx ~own c post))
                 proc1s
             with
            | Some c -> fail := Some (step, post, c, [])
            | None -> ());
            if !fail = None then
              match step with
              | Write_step (w, _) ->
                  let bad =
                    List.find_opt
                      (fun c ->
                        match kind_of c with
                        | Reg1 -> not (reg1_holds ctx c w)
                        | Cover -> not (cover_holds c w [| post |])
                        | Mixed -> not (mixed_holds c w post)
                        | Reg2 ->
                            not
                              (Array.for_all
                                 (fun v -> reg2_holds c w v && reg2_holds c v w)
                                 regok)
                        | _ -> false)
                      clauses
                  in
                  (match bad with
                  | Some c -> fail := Some (step, post, c, [ w ])
                  | None ->
                      if has_mixed then
                        (* old values against the stepped processor *)
                        Array.iter
                          (fun v ->
                            if !fail = None then
                              match
                                List.find_opt
                                  (fun c ->
                                    kind_of c = Mixed
                                    && not (mixed_holds c v post))
                                  clauses
                              with
                              | Some c -> fail := Some (step, post, c, [ v ])
                              | None -> ())
                          regok)
              | Read_step _ ->
                  if has_mixed then
                    Array.iter
                      (fun v ->
                        if !fail = None then
                          match
                            List.find_opt
                              (fun c ->
                                kind_of c = Mixed && not (mixed_holds c v post))
                              clauses
                          with
                          | Some c -> fail := Some (step, post, c, [ v ])
                          | None -> ())
                      regok
          end)
        (successors_of ctx a regok);
      (!fail, !trans)
    in
    let solo ~own a (regok_id, regok) =
      let key_rid =
        match a.aphase with
        | Boundary when (not has_reg2) && not has_mixed -> 0
        | _ -> regok_id
      in
      let key = (own, a, key_rid) in
      match Hashtbl.find_opt solo_cache key with
      | Some (res, trans) -> (res, trans, false)
      | None ->
          let res, trans = solo_check ~own a regok in
          Hashtbl.add solo_cache key (res, trans);
          (res, trans, true)
    in
    (* Assignment-dependent obligations: the stepped processor against the
       unchanged ones (binary processor clauses), and a written value
       against the unchanged processors (mixed clauses). *)
    let dependent procs i regok =
      let a = procs.(i) in
      let fail = ref None in
      List.iter
        (fun (step, post) ->
          if !fail = None then begin
            if has_proc2 then
              Array.iteri
                (fun j q ->
                  if j <> i && !fail = None then
                    match
                      List.find_opt
                        (fun c ->
                          kind_of c = Proc2
                          && not (proc2_holds c post q && proc2_holds c q post))
                        clauses
                    with
                    | Some c -> fail := Some (step, post, c, [])
                    | None -> ())
                procs;
            if has_mixed && !fail = None then
              match step with
              | Write_step (w, _) ->
                  Array.iteri
                    (fun j q ->
                      if j <> i && !fail = None then
                        match
                          List.find_opt
                            (fun c ->
                              kind_of c = Mixed && not (mixed_holds c w q))
                            clauses
                        with
                        | Some c -> fail := Some (step, post, c, [ w ])
                        | None -> ())
                    procs
              | Read_step _ -> ()
          end)
        (successors_of ctx a regok);
      !fail
    in
    let chosen = Array.make n { aview = 0; alevel = 0; aphase = Boundary } in
    let process () =
      if !to_skip > 0 then decr to_skip
      else begin
        (* The top of a configuration is the consistent point: the
           counters and CTIs cover exactly the [processed] before it. *)
        (match Checkpoint.tick durable with
        | Some reason -> raise (Stop_run reason)
        | None -> ());
        let rid, regok = regok_of chosen in
        Array.iteri
          (fun i a ->
            let res, trans, fresh = solo ~own:ctx.own.(i) a (rid, regok) in
            transitions := !transitions + trans;
            (match res with
            | Some (step, post, c, wregs) when fresh ->
                let post_procs = Array.copy chosen in
                post_procs.(i) <- post;
                record_cti
                  {
                    a_clause = c;
                    a_inputs = Array.copy inputs;
                    a_pid = i;
                    a_step = Some step;
                    a_regs = wregs;
                    a_pre = Array.copy chosen;
                    a_post = post_procs;
                  }
            | _ -> ());
            if has_proc2 || has_mixed then
              match dependent chosen i regok with
              | Some (step, post, c, wregs) ->
                  let post_procs = Array.copy chosen in
                  post_procs.(i) <- post;
                  record_cti
                    {
                      a_clause = c;
                      a_inputs = Array.copy inputs;
                      a_pid = i;
                      a_step = Some step;
                      a_regs = wregs;
                      a_pre = Array.copy chosen;
                      a_post = post_procs;
                    }
              | None -> ())
          chosen;
        incr processed
      end
    in
    let rec place i =
      if i = n then process ()
      else
        Array.iter
          (fun a ->
            chosen.(i) <- a;
            let ok =
              (not has_proc2)
              ||
              let rec pairs j =
                j >= i
                || (List.for_all
                      (fun c ->
                        kind_of c <> Proc2
                        || (proc2_holds c a chosen.(j)
                           && proc2_holds c chosen.(j) a))
                      clauses
                   && pairs (j + 1))
              in
              pairs 0
            in
            if ok then place (i + 1))
          adm.(i)
    in
    place 0
  in
  let finish () =
    {
      r_n = n;
      r_clauses = clauses;
      r_classes = classes;
      r_syntactic = !syntactic;
      r_universe = !processed;
      r_transitions = !transitions;
      r_init_ok = !init_ok;
      r_ctis = List.rev !ctis;
      r_cti_total = !cti_total;
      r_wall_s = Unix.gettimeofday () -. t0;
    }
  in
  match List.iter run_class classes with
  | () ->
      Option.iter (fun { Checkpoint.path; _ } -> save_ckpt path) ckpt;
      let r = finish () in
      if r.r_cti_total = 0 && r.r_init_ok then Proved r else Refuted r
  | exception Cti_cap -> Refuted (finish ())
  | exception Stop_run reason -> Gave_up { reason; processed = !processed }

(* ------------------------------------------------------------------ *)
(* CTI shrinking (abstract)                                            *)
(* ------------------------------------------------------------------ *)

let rec ipow b e = if e <= 0 then 1 else b * ipow b (e - 1)

(* A value admitted by the register clauses relative to [procs]. *)
let admissible_value ctx clauses procs v =
  List.for_all
    (fun c ->
      match kind_of c with
      | Reg1 -> reg1_holds ctx c v
      | Cover -> cover_holds c v procs
      | Mixed -> Array.for_all (mixed_holds c v) procs
      | _ -> true)
    clauses

let shrink_acti ~n clauses cti =
  if cti.a_pid < 0 then cti
  else
    let ctx = make_ctx ~n cti.a_inputs in
    let baseline i = { aview = ctx.own.(i); alevel = 0; aphase = Boundary } in
    let pid = cti.a_pid in
    let deviants =
      List.filter
        (fun j -> j <> pid && cti.a_pre.(j) <> baseline j)
        (List.init n Fun.id)
    in
    let build kept =
      Array.init n (fun j ->
          if j = pid || List.mem j kept then cti.a_pre.(j) else baseline j)
    in
    let step_values step regs =
      (match step with Some (Read_step (v, _)) -> [ v ] | _ -> []) @ regs
    in
    let still_failing kept =
      let pre = build kept in
      let post = Array.copy pre in
      post.(pid) <- cti.a_post.(pid);
      config_violation ctx clauses pre [||] = None
      && List.for_all
           (admissible_value ctx clauses pre)
           (step_values cti.a_step cti.a_regs)
      && config_violation ctx [ cti.a_clause ] post (Array.of_list cti.a_regs)
         <> None
    in
    let kept =
      if still_failing deviants then Fuzzing.Shrink.list ~still_failing deviants
      else deviants
    in
    let pre = build kept in
    let post = Array.copy pre in
    post.(pid) <- cti.a_post.(pid);
    let cti = { cti with a_pre = pre; a_post = post } in
    (* Lower the read value through the admissible values, smallest views
       and levels first. *)
    match cti.a_step with
    | Some (Read_step (v0, br)) when cti.a_regs = [] || cti.a_regs = [ v0 ] ->
        let rebuild v =
          match pre.(pid).aphase with
          | Boundary -> None
          | Scan s -> (
              let all_own = s.all_own && v.rview = pre.(pid).aview in
              let aview =
                if all_own then pre.(pid).aview else pre.(pid).aview lor v.rview
              in
              let mn = if all_own then min s.min_level v.rlevel else 0 in
              match br with
              | None when s.last ->
                  let alevel = if all_own then min (mn + 1) ctx.n else 0 in
                  Some { aview; alevel; aphase = Boundary }
              | Some last when not s.last ->
                  Some
                    {
                      aview;
                      alevel = pre.(pid).alevel;
                      aphase = Scan { all_own; min_level = mn; last };
                    }
              | _ -> None)
        in
        let try_value v =
          match rebuild v with
          | None -> false
          | Some post_p ->
              let post = Array.copy pre in
              post.(pid) <- post_p;
              let regs = if cti.a_regs = [] then [] else [ v ] in
              config_violation ctx [ cti.a_clause ] post (Array.of_list regs)
              <> None
        in
        let candidates =
          syntactic_values ctx
          |> List.filter (admissible_value ctx clauses pre)
          |> List.sort (fun a b ->
                 compare
                   (Bits.popcount a.rview, a.rlevel)
                   (Bits.popcount b.rview, b.rlevel))
        in
        let v = Fuzzing.Shrink.first_accepted ~still_failing:try_value candidates v0 in
        if v = v0 then cti
        else (
          match rebuild v with
          | None -> cti
          | Some post_p ->
              let post = Array.copy pre in
              post.(pid) <- post_p;
              {
                cti with
                a_step = Some (Read_step (v, br));
                a_regs = (if cti.a_regs = [] then [] else [ v ]);
                a_post = post;
              })
    | _ -> cti

(* ------------------------------------------------------------------ *)
(* Concrete checking at small n                                        *)
(* ------------------------------------------------------------------ *)

type ccti = {
  c_clause : clause;
  c_inputs : int array;
  c_wiring : Anonmem.Wiring.t;
  c_pid : int;
  c_pre : string;
  c_post : string;
  c_reachable : bool;
  c_trace : int list;
}

type concrete_report = {
  k_report : report;
  k_wirings : int;
  k_ctis : ccti list;
  k_reachable_violations : int;
}

type concrete_result =
  | C_proved of concrete_report
  | C_refuted of concrete_report
  | C_gave_up of { reason : Governor.reason; processed : int }

(* Every syntactic concrete local of the [m]-register instance whose view
   is drawn from the participant mask.  The codec's canonical
   representation invariant (min_level pinned to 0 once all_own failed)
   is respected so keys round-trip through the explorer's encoding; the
   written-sets are the cyclic order's, one prefix [2^k - 1] per cursor
   [k]. *)
let syn_concrete_locals cfg ctx =
  let m = cfg.Snap.m in
  let phases =
    SC.Writing
    :: List.concat_map
         (fun pos ->
           SC.Scanning { SC.pos; all_own = false; min_level = 0 }
           :: List.init (ctx.n + 1) (fun min_level ->
                  SC.Scanning { SC.pos; all_own = true; min_level }))
         (List.init m Fun.id)
  in
  List.concat_map
    (fun bits ->
      let view = Iset.of_bits bits in
      List.concat_map
        (fun level ->
          List.concat_map
            (fun k ->
              let written = Bits.full k in
              List.map (fun phase -> { SC.view; level; written; phase }) phases)
            (List.init m Fun.id))
        (List.init (ctx.n + 1) Fun.id))
    (submasks ctx.parts)

let syn_concrete_values ctx =
  List.concat_map
    (fun bits ->
      List.init (ctx.n + 1) (fun level ->
          { SC.view = Iset.of_bits bits; level }))
    (submasks ctx.parts)

let check_concrete ?(max_ctis = 100) ?governor ~n clauses =
  if n < 1 || n > 2 then
    invalid_arg
      "Inductive.check_concrete: the full concrete universe is only \
       enumerable at n <= 2; use check_abstract beyond that";
  let t0 = Unix.gettimeofday () in
  let cfg = Snap.standard ~n in
  let m = cfg.Snap.m in
  let classes = input_classes n in
  let wirings = Anonmem.Wiring.enumerate ~n ~m ~fix_first:true in
  let syntactic = ref 0
  and universe = ref 0
  and transitions = ref 0
  and processed = ref 0
  and cti_total = ref 0
  and ctis = ref []
  and init_ok = ref true
  and reach_viols = ref 0
  and capped = ref false in
  let record cti =
    incr cti_total;
    if List.length !ctis < max_ctis then ctis := cti :: !ctis;
    if !cti_total >= max_ctis then raise Cti_cap
  in
  let durable = Checkpoint.run ?governor None ignore in
  (* Reachable spaces, explored on demand and shared between the
     reachability sweep and CTI classification. *)
  let spaces = Hashtbl.create 8 in
  let space_for inputs wiring =
    let key = (Array.to_list inputs, Fmt.str "%a" Anonmem.Wiring.pp wiring) in
    match Hashtbl.find_opt spaces key with
    | Some sp -> sp
    | None -> (
        match E.explore ~cfg ~wiring ~inputs () with
        | E.Explored sp ->
            Hashtbl.add spaces key sp;
            sp
        | _ ->
            failwith
              "Inductive.check_concrete: reachable exploration did not finish")
  in
  let run_class inputs =
    let ctx = make_ctx ~n inputs in
    let syn_locals = syn_concrete_locals cfg ctx in
    let syn_vals = syn_concrete_values ctx in
    syntactic :=
      !syntactic
      + ipow (List.length syn_locals) n * ipow (List.length syn_vals) m;
    let p1 = proc1_clauses clauses in
    let adm =
      Array.init n (fun i ->
          syn_locals
          |> List.filter (fun l ->
                 List.for_all
                   (fun c ->
                     proc1_holds ctx ~own:ctx.own.(i) c (aproc_of_local cfg l))
                   p1)
          |> Array.of_list)
    in
    let adm_vals =
      syn_vals
      |> List.filter (fun v ->
             List.for_all
               (fun c -> kind_of c <> Reg1 || reg1_holds ctx c (areg_of_value v))
               clauses)
      |> Array.of_list
    in
    (* Packed as the reachable spaces' tables are, so the completeness
       cross-check compares their keys as they are stored. *)
    let layout = E.layout cfg inputs in
    let table = State_table.create ~key_width:(Key_layout.width layout) () in
    (* Init obligation. *)
    let init_st = E.init_state ~cfg ~inputs in
    (match
       state_violation ~cfg ~inputs clauses ~locals:init_st.E.locals
         ~registers:init_st.E.registers
     with
    | None -> ()
    | Some c ->
        init_ok := false;
        let key = E.encode_state cfg init_st in
        record
          {
            c_clause = c;
            c_inputs = Array.copy inputs;
            c_wiring = List.hd wirings;
            c_pid = -1;
            c_pre = key;
            c_post = key;
            c_reachable = true;
            c_trace = [];
          });
    let locals = Array.make n (List.hd syn_locals) in
    let regs = Array.make m { SC.view = Iset.empty; level = 0 } in
    let process_state () =
      (match Checkpoint.tick durable with
      | Some reason -> raise (Stop_run reason)
      | None -> ());
      incr processed;
      match state_violation ~cfg ~inputs clauses ~locals ~registers:regs with
      | Some _ -> ()
      | None ->
          incr universe;
          let st =
            { E.locals = Array.copy locals; registers = Array.copy regs }
          in
          let key = E.encode_state cfg st in
          ignore (State_table.intern table (Key_layout.pack layout key));
          List.iter
            (fun wiring ->
              List.iter
                (fun p ->
                  incr transitions;
                  let st' = E.successor cfg wiring st p in
                  match
                    state_violation ~cfg ~inputs clauses ~locals:st'.E.locals
                      ~registers:st'.E.registers
                  with
                  | None -> ()
                  | Some c ->
                      record
                        {
                          c_clause = c;
                          c_inputs = Array.copy inputs;
                          c_wiring = wiring;
                          c_pid = p;
                          c_pre = key;
                          c_post = E.encode_state cfg st';
                          c_reachable = false;
                          c_trace = [];
                        })
                (E.enabled cfg st))
            wirings
    in
    let rec place_regs r =
      if r = m then process_state ()
      else
        Array.iter
          (fun v ->
            regs.(r) <- v;
            place_regs (r + 1))
          adm_vals
    in
    let rec place i =
      if i = n then place_regs 0
      else
        Array.iter
          (fun l ->
            locals.(i) <- l;
            place (i + 1))
          adm.(i)
    in
    place 0;
    (* Reachability sweep: every reachable state either satisfies the
       clauses (and then the enumeration above must have interned it —
       the completeness cross-check) or is a direct refutation of
       invariance, reported with its trace. *)
    List.iter
      (fun wiring ->
        let sp = space_for inputs wiring in
        State_table.iter
          (fun id packed ->
            let skey = Key_layout.unpack layout packed in
            let st = E.decode_state cfg skey in
            match
              state_violation ~cfg ~inputs clauses ~locals:st.E.locals
                ~registers:st.E.registers
            with
            | None ->
                if State_table.find table packed = None then
                  failwith
                    "Inductive.check_concrete: enumeration missed a reachable \
                     Inv state"
            | Some c ->
                incr reach_viols;
                record
                  {
                    c_clause = c;
                    c_inputs = Array.copy inputs;
                    c_wiring = wiring;
                    c_pid = -1;
                    c_pre = skey;
                    c_post = skey;
                    c_reachable = true;
                    c_trace = List.map fst (E.trace_to sp id);
                  })
          sp.E.table)
      wirings
  in
  match
    try List.iter run_class classes
    with Cti_cap -> capped := true
  with
  | exception Stop_run reason -> C_gave_up { reason; processed = !processed }
  | () ->
      ignore !capped;
      let report =
        {
          r_n = n;
          r_clauses = clauses;
          r_classes = classes;
          r_syntactic = !syntactic;
          r_universe = !universe;
          r_transitions = !transitions;
          r_init_ok = !init_ok;
          r_ctis = [];
          r_cti_total = !cti_total;
          r_wall_s = Unix.gettimeofday () -. t0;
        }
      in
      let cr =
        {
          k_report = report;
          k_wirings = List.length wirings;
          k_ctis = List.map (fun cti ->
              if cti.c_pid < 0 then cti
              else
                let sp = space_for cti.c_inputs cti.c_wiring in
                match E.find sp cti.c_pre with
                | None -> cti
                | Some id ->
                    {
                      cti with
                      c_reachable = true;
                      c_trace = List.map fst (E.trace_to sp id);
                    })
            (List.rev !ctis);
          k_reachable_violations = !reach_viols;
        }
      in
      if !cti_total = 0 && !init_ok then C_proved cr else C_refuted cr

let shrink_ccti ~n clauses cti =
  if cti.c_pid < 0 then cti
  else
    let cfg = Snap.standard ~n in
    let m = cfg.Snap.m in
    let inputs = cti.c_inputs in
    let pre = E.decode_state cfg cti.c_pre in
    let init = E.init_state ~cfg ~inputs in
    let pid = cti.c_pid in
    let comps =
      List.filter_map
        (fun j ->
          if j <> pid && pre.E.locals.(j) <> init.E.locals.(j) then Some (`P j)
          else None)
        (List.init n Fun.id)
      @ List.filter_map
          (fun r ->
            if pre.E.registers.(r) <> init.E.registers.(r) then Some (`R r)
            else None)
          (List.init m Fun.id)
    in
    let build kept =
      {
        E.locals =
          Array.init n (fun j ->
              if j = pid || List.mem (`P j) kept then pre.E.locals.(j)
              else init.E.locals.(j));
        registers =
          Array.init m (fun r ->
              if List.mem (`R r) kept then pre.E.registers.(r)
              else init.E.registers.(r));
      }
    in
    let still_failing kept =
      let st = build kept in
      state_violation ~cfg ~inputs clauses ~locals:st.E.locals
        ~registers:st.E.registers
      = None
      && List.mem pid (E.enabled cfg st)
      &&
      let st' = E.successor cfg cti.c_wiring st pid in
      state_violation ~cfg ~inputs [ cti.c_clause ] ~locals:st'.E.locals
        ~registers:st'.E.registers
      <> None
    in
    let kept =
      if still_failing comps then Fuzzing.Shrink.list ~still_failing comps
      else comps
    in
    let st = build kept in
    let st' = E.successor cfg cti.c_wiring st pid in
    let c_pre = E.encode_state cfg st and c_post = E.encode_state cfg st' in
    let c_reachable, c_trace =
      match E.explore ~cfg ~wiring:cti.c_wiring ~inputs () with
      | E.Explored sp -> (
          match E.find sp c_pre with
          | Some id -> (true, List.map fst (E.trace_to sp id))
          | None -> (false, []))
      | _ -> (false, [])
    in
    { cti with c_pre; c_post; c_reachable; c_trace }

let replay_ccti ~n cti =
  if not cti.c_reachable then false
  else
    let cfg = Snap.standard ~n in
    match
      Replay.run ~cfg ~wiring:cti.c_wiring ~inputs:cti.c_inputs cti.c_trace
    with
    | exception Invalid_argument _ -> false
    | steps -> (
        let final =
          match List.rev steps with
          | (_, st) :: _ -> st
          | [] -> Replay.E.init_state ~cfg ~inputs:cti.c_inputs
        in
        String.equal (Replay.E.encode_state cfg final) cti.c_pre
        &&
        if cti.c_pid < 0 then true
        else
          match Replay.E.successor cfg cti.c_wiring final cti.c_pid with
          | exception Invalid_argument _ -> false
          | st' -> String.equal (Replay.E.encode_state cfg st') cti.c_post)

let pp_ccti ppf cti =
  let cfg = Snap.standard ~n:(Array.length cti.c_inputs) in
  let pp_key ppf key =
    let st = E.decode_state cfg key in
    Fmt.pf ppf "%a | %a"
      Fmt.(array ~sep:sp pp_aproc)
      (Array.map (aproc_of_local cfg) st.E.locals)
      Fmt.(array ~sep:sp pp_areg)
      (Array.map areg_of_value st.E.registers)
  in
  Fmt.pf ppf "@[<v>clause %a violated (inputs %a, wiring %a)@ %s@ pre:  %a@ post: %a"
    pp_clause cti.c_clause
    Fmt.(Dump.array int)
    cti.c_inputs Anonmem.Wiring.pp cti.c_wiring
    (if cti.c_pid < 0 then "reachable-state violation"
     else Fmt.str "p%d steps" cti.c_pid)
    pp_key cti.c_pre pp_key cti.c_post;
  if cti.c_reachable then
    Fmt.pf ppf "@ trace: %a" Fmt.(Dump.list int) cti.c_trace;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Universe accounting                                                 *)
(* ------------------------------------------------------------------ *)

type counts = {
  u_syn_locals : int;
  u_adm_locals : int;
  u_syn_values : int;
  u_adm_values : int;
  u_syn_states : int;
  u_adm_states : int;
  u_exact : bool;
}

let universe_counts ~n clauses =
  let zero =
    {
      u_syn_locals = 0;
      u_adm_locals = 0;
      u_syn_values = 0;
      u_adm_values = 0;
      u_syn_states = 0;
      u_adm_states = 0;
      u_exact = not (List.exists (fun c -> kind_of c = Proc2) clauses);
    }
  in
  List.fold_left
    (fun acc inputs ->
      let ctx = make_ctx ~n inputs in
      let syn = List.length (syntactic_procs ctx) in
      let adm_i =
        Array.init n (fun i ->
            List.length (admitted_procs ctx clauses ~own:ctx.own.(i)))
      in
      let vals = syntactic_values ctx in
      let adm_vals =
        List.filter
          (fun v ->
            List.for_all
              (fun c -> kind_of c <> Reg1 || reg1_holds ctx c v)
              clauses)
          vals
      in
      {
        acc with
        u_syn_locals = acc.u_syn_locals + (n * syn);
        u_adm_locals = acc.u_adm_locals + Array.fold_left ( + ) 0 adm_i;
        u_syn_values = acc.u_syn_values + List.length vals;
        u_adm_values = acc.u_adm_values + List.length adm_vals;
        u_syn_states = acc.u_syn_states + ipow syn n;
        u_adm_states = acc.u_adm_states + Array.fold_left ( * ) 1 adm_i;
      })
    zero (input_classes n)
