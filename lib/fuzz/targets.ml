(** The fuzzable protocols, each bundled with its task oracle.

    - [snapshot] — the Figure-3 wait-free snapshot; oracle: validity,
      group solvability, the strong all-outputs containment the algorithm
      guarantees (Section 5.3.2), and wait-freedom within a generous step
      budget.
    - [double_collect] — the known-unsound baseline (Section 4): same
      oracle minus wait-freedom (the rule can be starved forever, which is
      its other defect).  The harness is expected to find and shrink its
      comparability violation; the test-suite pins that down.
    - [renaming] — Figure-4 adaptive renaming; oracle: adaptive name
      range, cross-group uniqueness, group solvability, wait-freedom.
    - [consensus] — Figure-5 obstruction-free consensus; oracle: agreement
      and validity of whatever decisions the (possibly partial) execution
      produced.  No step budget: only obstruction-freedom is promised. *)

(** Generous per-processor step budget for the wait-free algorithms.
    Empirically the Figure-3 snapshot terminates within a few hundred
    own-steps for the sizes fuzzed here; the budget leaves two orders of
    magnitude of slack so that only genuine non-termination (a processor
    churning forever) can exceed it. *)
let wait_free_budget ~n ~m = Some (500 * (n + 1) * (m + 1))

(** The register limit of the Figure-3 family (snapshot, renaming,
    consensus): {!Algorithms.Snapshot_core} keeps a round's written
    registers in one bitmask. *)
let snapshot_max_registers = Repro_util.Bits.max_width

module Snapshot_oracle = struct
  let check ~inputs ~participated ~outputs =
    let t = Tasks.Outcome.make ~participated ~inputs ~outputs () in
    match Tasks.Snapshot_task.check_group_solution t with
    | Error _ as e -> e
    | Ok () -> Tasks.Snapshot_task.check_strong t
end

module Snapshot : Target.S = struct
  module P = Algorithms.Snapshot

  let cfg ~n ~m = Algorithms.Snapshot.cfg ~n ~m
  let max_registers = snapshot_max_registers
  let m_range ~n = (n, n)
  let check = Snapshot_oracle.check
  let step_budget = wait_free_budget
end

module Double_collect : Target.S = struct
  module P = Algorithms.Double_collect

  let cfg ~n ~m = Algorithms.Double_collect.cfg ~n ~m
  let max_registers = max_int

  (* The rule's defect needs covering pressure: fewer registers than
     processors (Figure 2 runs 5 processors on 3 registers). *)
  let m_range ~n = (max 1 (n - 2), n)
  let check = Snapshot_oracle.check
  let step_budget ~n:_ ~m:_ = None
end

module Renaming : Target.S = struct
  module P = Algorithms.Renaming

  let cfg ~n ~m = Algorithms.Renaming.cfg ~n ~m
  let max_registers = snapshot_max_registers
  let m_range ~n = (n, n)

  let check ~inputs ~participated ~outputs =
    let names =
      Array.map (Option.map (fun o -> o.Algorithms.Renaming.name_out)) outputs
    in
    Tasks.Renaming_task.check
      (Tasks.Outcome.make ~participated ~inputs ~outputs:names ())

  let step_budget = wait_free_budget
end

module Consensus : Target.S = struct
  module P = Algorithms.Consensus

  let cfg ~n ~m = Algorithms.Consensus.cfg ~n ~m
  let max_registers = snapshot_max_registers
  let m_range ~n = (n, n)

  let check ~inputs ~participated ~outputs =
    Tasks.Consensus_task.check
      (Tasks.Outcome.make ~participated ~inputs ~outputs ())

  let step_budget ~n:_ ~m:_ = None
end

(* --- the literature portfolio --------------------------------------------- *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(** Smallest register count the mutex-based protocols document as
    sufficient for [n] processors: at least 3, coprime with every
    contention level in [2..n].  Fuzzing below it would report the
    protocol's own (correct) feasibility boundary as failures — those
    cells belong to the model checkers and the feasibility map. *)
let portfolio_m ~n =
  let ok m =
    let rec go k = k > n || (gcd m k = 1 && go (k + 1)) in
    go 2
  in
  let rec first m = if ok m then m else first (m + 1) in
  first 3

module Rt_mutex : Target.S = struct
  module P = Algorithms.Rt_mutex

  let cfg ~n ~m = Algorithms.Rt_mutex.cfg ~n ~m
  let max_registers = max_int
  let m_range ~n = (portfolio_m ~n, portfolio_m ~n)

  (* The audit tripwire: a critical-section holder that observed a
     foreign seal outputs [Cs_intruded], sound evidence of overlapping
     critical sections even under duplicate identities (clones cannot
     trip it — their seals compare equal — and a foreign seal requires
     an all-mine collect inside the holder's window). *)
  let check ~inputs ~participated ~outputs =
    Tasks.Mutex_task.check
      (Tasks.Outcome.make ~participated ~inputs ~outputs ())

  (* Deadlock-free, not wait-free: an adversarial schedule can starve
     any fixed processor in the entry competition, so a step budget
     would report correct executions as failures.  Deadlock-freedom is
     the fair-SCC search's job ({!Core.verify_mutex}). *)
  let step_budget ~n:_ ~m:_ = None
end

module Naming : Target.S = struct
  module P = Algorithms.Naming

  let cfg ~n ~m = Algorithms.Naming.cfg ~n ~m
  let max_registers = max_int
  let m_range ~n = (portfolio_m ~n, portfolio_m ~n)

  let check ~inputs ~participated ~outputs =
    Tasks.Naming_task.check
      (Tasks.Outcome.make ~participated ~inputs ~outputs ())

  (* Inherits the mutex's entry competition, hence no budget either. *)
  let step_budget ~n:_ ~m:_ = None
end

module Weak_leader : Target.S = struct
  module P = Algorithms.Weak_leader

  let cfg ~n ~m = Algorithms.Weak_leader.cfg ~n ~m
  let max_registers = max_int

  (* Cross-group uniqueness survives exactly when no rival group can
     cover the winner's full view: each processor holds at most one
     pending stale claim, so a group of k clones can flip at most k
     registers inside the winner's window.  With distinct identities
     (the model checkers' grids) m >= 2 suffices; under fuzzing, where
     group assignments are collision-biased, a rival group can have up
     to n-1 members, so the documented floor is m >= n.  The fuzzer
     found the (n=3, m=2, two clones) flip before this floor was
     raised — see the feasibility notes in DESIGN.md. *)
  let m_range ~n = (max 2 n, max 2 n + 1)

  let check ~inputs ~participated ~outputs =
    Tasks.Leader_task.check
      (Tasks.Outcome.make ~participated ~inputs ~outputs ())

  let step_budget = wait_free_budget
end

let all : (string * (module Target.S)) list =
  [
    ("snapshot", (module Snapshot));
    ("double_collect", (module Double_collect));
    ("renaming", (module Renaming));
    ("consensus", (module Consensus));
    ("rt_mutex", (module Rt_mutex));
    ("naming", (module Naming));
    ("weak_leader", (module Weak_leader));
  ]

let find key = List.assoc_opt key all
let keys = List.map fst all
