(** Inductive-invariant track for the Figure-3 snapshot: certify safety
    facts by induction instead of reachability.

    Explicit-state checking enumerates the reachable states of one [(n, m,
    wiring)] instance and tops out around n = 4.  This module takes the
    TendermintAccInv3 route instead: state a candidate invariant [Inv] as a
    conjunction of {!clause}s over simulator configurations and discharge
    the two obligations

    {ul
    {- [Init ⇒ Inv] — every initial configuration satisfies the clauses;}
    {- [Inv ∧ Next ⇒ Inv′] — every single transition from an
       Inv-satisfying configuration lands in an Inv-satisfying one}}

    by exhaustive enumeration of single transitions from the enumerated
    Inv-state universe.  A failure of the second obligation is a
    {e counterexample to induction} (CTI): a transition [pre → post] with
    [pre ⊨ Inv] and [post ⊭ Inv].  A CTI does not refute invariance — the
    pre-state may be unreachable — but a proved conjunction holds in every
    reachable state of {e every} schedule, so {!state_violation} over it
    can serve as any explicit engine's [~invariant] and never fire.

    Two checkers discharge the obligations:

    {ul
    {- {!check_abstract} works on an abstraction of configurations that
       erases the scan position, the private write cursor and the register
       file: a processor keeps [(view, level, phase)] where the phase
       records only [all_own], the running [min_level] and whether the
       {e next} read completes the scan, and a read returns {e any}
       register value admitted by the register clauses.  Every concrete
       transition of every instance with [m ≥ 1] registers and any wiring
       is covered by an abstract one, so a pass certifies [Inv] for the
       given [n] across {e all} register counts, wirings and schedules at
       once — the repo's first conclusion not tied to one finite instance.
       The price is possible spurious CTIs (the abstraction may fail
       clauses the concrete system maintains).}
    {- {!check_concrete} enumerates the full syntactic configuration space
       of the paper's [m = n] instance at small [n] (feasible at n = 2),
       interns the Inv-universe into a {!State_table} and pushes every
       state through {!Explorer.Make.successor} under every wiring — no
       abstraction, so it cross-validates the abstract checker's frame
       reasoning, and its CTIs are classified against the actual reachable
       spaces: a {e reachable} CTI comes with a pid trace replayable
       through {!Witness.Replay}.}} *)

(** {1 The clause language}

    Per-level predicates over configurations.  [committed p] below means
    the level that processor [p] is guaranteed to carry to its next round
    boundary: its current level while at the boundary or mid-scan with
    [all_own] still true, and [0] once [all_own] has failed (the scan is
    doomed to reset the level).  Views are sets of participating inputs. *)
type clause =
  | Own_input_in_view  (** ∀p: p's own input ∈ view p *)
  | View_in_participants  (** ∀p: view p ⊆ participating inputs *)
  | Level_bounds  (** ∀p: 0 ≤ level p ≤ n *)
  | Scan_bounds
      (** ∀p mid-scan: 0 ≤ min_level ≤ n, and min_level = 0 once all_own
          has failed (the representation pins it) *)
  | Reg_view_in_participants  (** ∀r: view r ⊆ participating inputs *)
  | Reg_level_bounds  (** ∀r: 0 ≤ level r ≤ n *)
  | Reg_nonempty_above of int  (** ∀r: level r ≥ k ⇒ view r ≠ ∅ *)
  | Reg_view_covered
      (** ∀r: view r = ∅ ∨ ∃p: view r ⊆ view p — memory holds no view
          that has escaped every processor *)
  | Procs_comparable_above of int
      (** ∀p q: committed p ≥ k ∧ committed q ≥ k ⇒ views ⊆-comparable *)
  | Regs_comparable_above of int
      (** ∀r r': level r ≥ k ∧ level r' ≥ k ⇒ views ⊆-comparable *)
  | Reg_proc_comparable_above of int * int
      (** ∀r p: level r ≥ j ∧ committed p ≥ k ⇒ view r, view p
          ⊆-comparable *)

val clause_name : clause -> string
val clause_of_name : string -> clause option
val pp_clause : clause Fmt.t

val proved : clause list
(** The containment-and-coverage conjunction that passes both obligations. *)

val candidates : clause list
(** [proved] plus the per-level comparability strengthenings from the
    paper's structural account; the extra clauses are rejected at the
    induction step with CTIs (see EXPERIMENTS.md X11). *)

val parse_clauses : string -> (clause list, string) result
(** Comma-separated clause names, or the presets ["proved"] /
    ["candidates"]. *)

(** {1 Evaluation over concrete configurations} *)

val state_violation :
  cfg:Algorithms.Snapshot.cfg ->
  inputs:int array ->
  clause list ->
  locals:Algorithms.Snapshot.local array ->
  registers:Algorithms.Snapshot.value array ->
  clause option
(** First clause violated by the configuration, [None] when all hold.
    Bitmask-based; the workhorse behind the checkers. *)

val naive_state_violation :
  cfg:Algorithms.Snapshot.cfg ->
  inputs:int array ->
  clause list ->
  locals:Algorithms.Snapshot.local array ->
  registers:Algorithms.Snapshot.value array ->
  clause option
(** Independent re-implementation of {!state_violation} straight off the
    clause glosses, on {!Repro_util.Iset} operations — the differential
    oracle for the QCheck agreement property. *)

(** {1 Abstract configurations and CTIs} *)

type aphase =
  | Boundary  (** between rounds, about to write (or terminated) *)
  | Scan of { all_own : bool; min_level : int; last : bool }
      (** mid-scan; [last] = the next read completes the scan *)

type aproc = { aview : int; alevel : int; aphase : aphase }
(** Abstract processor: view as an {!Repro_util.Iset.to_bits} bitmask. *)

type areg = { rview : int; rlevel : int }

type astep =
  | Write_step of areg * bool
      (** value written; the successor's [last] flag *)
  | Read_step of areg * bool option
      (** value read; [Some last'] when the scan continues, [None] when
          this read completed it *)

type acti = {
  a_clause : clause;  (** the clause the post-configuration violates *)
  a_inputs : int array;
  a_pid : int;  (** stepping processor; [-1] for an Init violation *)
  a_step : astep option;  (** [None] for an Init violation *)
  a_regs : areg list;
      (** register values witnessing the violated instance (≤ 2) *)
  a_pre : aproc array;
  a_post : aproc array;
}

val pp_aproc : aproc Fmt.t
val pp_areg : areg Fmt.t
val pp_acti : acti Fmt.t

val shrink_acti : n:int -> clause list -> acti -> acti
(** ddmin ({!Fuzzing.Shrink.list}) the CTI's pre-configuration: reset every
    processor not needed for the violation to its initial local state, then
    lower the step's register value through the admissible values
    ({!Fuzzing.Shrink.first_accepted}).  The result is 1-minimal: waking
    any remaining processor back to init loses the CTI. *)

type report = {
  r_n : int;
  r_clauses : clause list;
  r_classes : int array list;  (** input classes checked, up to renaming *)
  r_syntactic : int;  (** syntactic candidate configurations *)
  r_universe : int;  (** Inv-satisfying configurations enumerated *)
  r_transitions : int;  (** single transitions checked *)
  r_init_ok : bool;
  r_ctis : acti list;  (** stored CTIs, capped at [max_ctis] *)
  r_cti_total : int;  (** CTIs found before the cap stopped the search *)
  r_wall_s : float;
}

type abstract_result =
  | Proved of report
  | Refuted of report  (** some obligation failed; [r_ctis] non-empty *)
  | Gave_up of { reason : Governor.reason; processed : int }
      (** a resource governor tripped; resumable from the checkpoint *)

val check_abstract :
  ?max_ctis:int ->
  ?governor:Governor.t ->
  ?ckpt:Checkpoint.policy ->
  ?resume:bool ->
  n:int ->
  clause list ->
  abstract_result
(** Discharge both obligations over the abstract universe for every input
    class at [n] processors.  [max_ctis] (default 100) stops the search
    once that many CTIs are recorded.  The checkpoint stores the
    enumeration cursor, counters and CTIs found so far; [resume] replays
    it (the context section pins [n] and the clause list). *)

val pp_report : report Fmt.t

(** {1 Concrete checking at small n} *)

type ccti = {
  c_clause : clause;
  c_inputs : int array;
  c_wiring : Anonmem.Wiring.t;
  c_pid : int;  (** [-1] marks a reachable Inv-violating state (no step) *)
  c_pre : string;  (** encoded pre-state key ({!Explorer.Make.encode_state}) *)
  c_post : string;
  c_reachable : bool;
  c_trace : int list;  (** pid path from init when reachable, else [] *)
}

type concrete_report = {
  k_report : report;
  k_wirings : int;
  k_ctis : ccti list;
  k_reachable_violations : int;
      (** reachable states violating the clauses — non-zero refutes
          invariance itself, not just inductiveness *)
}

type concrete_result =
  | C_proved of concrete_report
  | C_refuted of concrete_report
  | C_gave_up of { reason : Governor.reason; processed : int }

val check_concrete :
  ?max_ctis:int -> ?governor:Governor.t -> n:int -> clause list -> concrete_result
(** Full-universe induction for the [m = n] instance over every
    [fix_first] wiring, plus a direct invariance sweep of each reachable
    space.  Feasible at n = 2 (≈ 7M syntactic configurations per input
    class); n = 3 is ≈ 10^13 and is what {!check_abstract} is for. *)

val shrink_ccti : n:int -> clause list -> ccti -> ccti
(** ddmin the concrete CTI: reset unneeded processors and registers to
    their initial contents. *)

val replay_ccti : n:int -> ccti -> bool
(** Replay a reachable CTI through {!Witness.Replay}: run [c_trace] from
    the initial state, require it to land exactly on [c_pre], then take
    [c_pid]'s step and require it to land on [c_post].  [false] for
    unreachable (spurious) CTIs. *)

val pp_ccti : ccti Fmt.t

(** {1 Universe accounting} *)

type counts = {
  u_syn_locals : int;  (** syntactic per-processor abstract locals, summed
                           over input classes *)
  u_adm_locals : int;  (** locals admitted by the processor clauses *)
  u_syn_values : int;  (** syntactic register values *)
  u_adm_values : int;  (** values admitted by the register clauses *)
  u_syn_states : int;  (** syntactic local assignments (Σ classes Π_i) *)
  u_adm_states : int;
      (** assignments passing the processor clauses; exact when the clause
          list has no binary processor clause, an upper bound otherwise *)
  u_exact : bool;
}

val universe_counts : n:int -> clause list -> counts
(** Closed-form universe sizes — no enumeration of assignments, so this is
    cheap even at n = 4/5 where the induction itself is not run.  Gives
    the candidate-state reduction of EXPERIMENTS X11 (16x at n = 4,
    pinned by test_inductive). *)

val input_classes : int -> int array list
(** Input assignments at [n] processors up to input renaming and
    processor permutation (integer partitions of [n]). *)
