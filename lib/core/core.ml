(** High-level entry points to the fully-anonymous shared-memory library.

    This module is the one-stop API used by the examples, the CLI and the
    benchmarks.  It wires the algorithms of the paper to concrete wirings
    and schedulers and returns validated results:

    - {!solve_snapshot} — the wait-free snapshot task (Figure 3);
    - {!solve_renaming} — adaptive [M(M+1)/2]-renaming (Figure 4);
    - {!solve_consensus} — obstruction-free consensus (Figure 5), driven to
      termination by granting solo time to undecided processors;
    - {!stable_view_analysis} — the eventual pattern of Section 4;
    - {!figure2_table} — the paper's Figure 2 execution table;
    - {!lower_bound_demo} — the Section 2.1 covering construction;
    - {!verify_snapshot_model} / {!find_nonatomic_execution} — the
      model-checking claims about the Figure-3 algorithm.

    Lower-level control (custom wirings, schedulers, protocols) lives in
    the [Anonmem], [Algorithms], [Tasks], [Modelcheck] and [Analysis]
    libraries, all re-exported here. *)

module Iset = Repro_util.Iset
module Rng = Repro_util.Rng
module Wiring = Anonmem.Wiring
module Scheduler = Anonmem.Scheduler
module Protocol = Anonmem.Protocol

type scheduler_kind = [ `Random | `Round_robin ]

let scheduler_of_kind rng = function
  | `Random -> Scheduler.random rng
  | `Round_robin -> Scheduler.round_robin ()

(** {1 Snapshot} *)

module Snapshot_sys = Anonmem.System.Make (Algorithms.Snapshot)

type 'o solved = {
  outputs : 'o array;
  steps : int;
  wiring : Wiring.t;
  seed : int;
}

(** Solve the snapshot task for [inputs] (group identifiers).  The wiring
    is drawn at random from [seed]; the schedule is fair.  Returns the
    snapshot of each processor, validated against the snapshot task (both
    the group-solvability definition and the stronger all-outputs
    containment the algorithm guarantees). *)
let solve_snapshot ?(seed = 0) ?(scheduler = `Random) ?(max_steps = 2_000_000)
    ~inputs () =
  let n = Array.length inputs in
  let rng = Rng.create ~seed in
  let cfg = Algorithms.Snapshot.standard ~n in
  let wiring = Wiring.random rng ~n ~m:n in
  let state = Snapshot_sys.init ~cfg ~wiring ~inputs in
  let sched = scheduler_of_kind (Rng.split rng) scheduler in
  let stop, steps = Snapshot_sys.run ~max_steps ~sched state in
  match stop with
  | Snapshot_sys.All_halted -> (
      let outputs =
        Array.map
          (function Some o -> o | None -> assert false)
          (Snapshot_sys.outputs state)
      in
      let outcome =
        Tasks.Outcome.make ~inputs ~outputs:(Snapshot_sys.outputs state) ()
      in
      match
        ( Tasks.Snapshot_task.check_group_solution outcome,
          Tasks.Snapshot_task.check_strong outcome )
      with
      | Ok (), Ok () -> Ok { outputs; steps; wiring; seed }
      | Error e, _ | _, Error e ->
          Error
            (Fmt.str "snapshot outputs failed validation: %a"
               Tasks.Task_failure.pp e))
  | Snapshot_sys.Max_steps ->
      Error (Fmt.str "snapshot did not terminate within %d steps" max_steps)
  | Snapshot_sys.Scheduler_done -> Error "scheduler gave up"

(** {1 Renaming} *)

module Renaming_sys = Anonmem.System.Make (Algorithms.Renaming)

let solve_renaming ?(seed = 0) ?(scheduler = `Random) ?(max_steps = 2_000_000)
    ~inputs () =
  let n = Array.length inputs in
  let rng = Rng.create ~seed in
  let cfg = Algorithms.Renaming.standard ~n in
  let wiring = Wiring.random rng ~n ~m:n in
  let state = Renaming_sys.init ~cfg ~wiring ~inputs in
  let sched = scheduler_of_kind (Rng.split rng) scheduler in
  let stop, steps = Renaming_sys.run ~max_steps ~sched state in
  match stop with
  | Renaming_sys.All_halted -> (
      let outputs =
        Array.map
          (function Some o -> o | None -> assert false)
          (Renaming_sys.outputs state)
      in
      let outcome =
        Tasks.Outcome.make ~inputs
          ~outputs:
            (Array.map
               (Option.map (fun o -> o.Algorithms.Renaming.name_out))
               (Renaming_sys.outputs state))
          ()
      in
      match Tasks.Renaming_task.check outcome with
      | Ok () -> Ok { outputs; steps; wiring; seed }
      | Error e ->
          Error
            (Fmt.str "renaming outputs failed validation: %a"
               Tasks.Task_failure.pp e))
  | Renaming_sys.Max_steps ->
      Error (Fmt.str "renaming did not terminate within %d steps" max_steps)
  | Renaming_sys.Scheduler_done -> Error "scheduler gave up"

(** {1 Consensus} *)

module Consensus_sys = Anonmem.System.Make (Algorithms.Consensus)

(** Solve consensus on [inputs].  The algorithm is obstruction-free, so a
    fully adversarial scheduler could livelock it; this driver runs a fair
    contention phase of [contention_steps] steps and then grants each
    still-undecided processor solo time, which the obstruction-freedom
    guarantee turns into termination.  The decided values are validated
    for agreement and validity. *)
let solve_consensus ?(seed = 0) ?(contention_steps = 5_000)
    ?(max_steps = 5_000_000) ~inputs () =
  let n = Array.length inputs in
  let rng = Rng.create ~seed in
  let cfg = Algorithms.Consensus.standard ~n in
  let wiring = Wiring.random rng ~n ~m:n in
  let state = Consensus_sys.init ~cfg ~wiring ~inputs in
  let sched = Scheduler.random (Rng.split rng) in
  let _, contention = Consensus_sys.run ~max_steps:contention_steps ~sched state in
  let solo_budget = max_steps - contention in
  let rec finish p steps =
    if p >= n then Ok steps
    else if Consensus_sys.is_halted state p then finish (p + 1) steps
    else
      let stop, s =
        Consensus_sys.run ~max_steps:solo_budget ~sched:(Scheduler.solo p) state
      in
      match stop with
      | Consensus_sys.Max_steps -> Error "solo run did not decide within budget"
      | Consensus_sys.All_halted | Consensus_sys.Scheduler_done ->
          if Consensus_sys.is_halted state p then finish (p + 1) (steps + s)
          else Error "solo run stalled without deciding"
  in
  match finish 0 contention with
  | Error e -> Error e
  | Ok steps -> (
      let outputs =
        Array.map
          (function Some o -> o | None -> assert false)
          (Consensus_sys.outputs state)
      in
      let outcome =
        Tasks.Outcome.make ~inputs ~outputs:(Consensus_sys.outputs state) ()
      in
      match Tasks.Consensus_task.check outcome with
      | Ok () -> Ok { outputs; steps; wiring; seed }
      | Error e ->
          Error
            (Fmt.str "consensus outputs failed validation: %a"
               Tasks.Task_failure.pp e))

(** {1 Analyses and reproductions} *)

let stable_view_analysis ?(seed = 0) ~n ~m ~inputs () =
  Analysis.Stable_views.run_random ~n ~m ~inputs ~seed ()

let figure2_table ?actions () =
  Repro_util.Text_table.render
    (Analysis.Figure2.to_table (Analysis.Figure2.generate ?actions ()))

let lower_bound_demo ~n () = Analysis.Lower_bound.run ~n ()

module Snapshot_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Snapshot)
module Snapshot_par_mc =
  Modelcheck.Par_explorer.Make (Modelcheck.Codecs.Snapshot)
module Snapshot_ws_mc = Modelcheck.Ws_explorer.Make (Modelcheck.Codecs.Snapshot)

(** The strong snapshot invariant checked during model checking: every
    pair of outputs produced so far is related by containment, every
    output contains the owner's input and only participating inputs. *)
let snapshot_invariant cfg inputs =
  (* Computed once, when the check is partially applied to [cfg] and
     [inputs], not once per state. *)
  let participating = Iset.of_list (Array.to_list inputs) in
  let output = Algorithms.Snapshot.output cfg in
  fun (st : Snapshot_mc.state) ->
    let locals = st.Snapshot_mc.locals in
    let n = Array.length locals in
    (* The first offending processor in index order; at each one, the
       own-input check, then non-participants, then an incomparable
       output at a later index. *)
    let verdict = ref (Ok ()) and p = ref 0 in
    while Result.is_ok !verdict && !p < n do
      (match output locals.(!p) with
      | None -> ()
      | Some o ->
          if not (Iset.mem inputs.(!p) o) then
            verdict :=
              Error (Fmt.str "output of p%d misses its own input" (!p + 1))
          else if not (Iset.subset o participating) then
            verdict :=
              Error (Fmt.str "output of p%d contains non-participants" (!p + 1))
          else begin
            let q = ref (!p + 1) in
            while
              !q < n
              &&
              match output locals.(!q) with
              | Some o' -> Iset.comparable o o'
              | None -> true
            do
              incr q
            done;
            if !q < n then
              verdict := Error (Fmt.str "incomparable outputs (p%d)" (!p + 1))
          end);
      incr p
    done;
    !verdict

(** Exhaustively verify the Figure-3 algorithm for [n] processors: for the
    given inputs and {e every} wiring (processor 0 pinned to the identity —
    lossless by register anonymity), explore all interleavings, check the
    strong snapshot invariant and wait-freedom.  [n = 3] reproduces the
    paper's TLC claim.

    [~reduction:true] quotients each per-wiring space by its anonymity
    symmetries (a gain exactly when [inputs] has repeated values — with
    all-distinct inputs the symmetry group is trivial); [~domains > 1]
    switches to the layer-synchronous parallel engine
    ({!Modelcheck.Par_explorer}) with that many worker domains, or — with
    [~ws:true] — to the work-stealing engine ({!Modelcheck.Ws_explorer}).
    All engines return the same summary type and agree on every verdict
    (asserted by the differential suite).  Only the sequential engine
    ([domains = 1]) honours [ckpt]/[resume]. *)
let verify_snapshot_model ?(n = 3) ?(inputs = None) ?max_states
    ?(reduction = false) ?(domains = 1) ?(ws = false) ?governor ?ckpt
    ?(resume = false) () =
  let inputs = match inputs with Some i -> i | None -> Array.init n (fun i -> i + 1) in
  let cfg = Algorithms.Snapshot.standard ~n in
  if domains > 1 && ws then
    (* Work-stealing engine: governed but not checkpointable (no
       consistent cut without stopping the pool). *)
    Snapshot_ws_mc.check_all_wirings ?max_states ~reduction ?governor ~domains
      ~invariant:(snapshot_invariant cfg inputs)
      ~cfg ~inputs ()
  else if domains > 1 then
    (* The layer-synchronous engine shares no checkpointable sweep
       position; run it unbudgeted (callers wanting durability use
       domains = 1). *)
    Snapshot_par_mc.check_all_wirings ?max_states ~reduction ~domains
      ~invariant:(snapshot_invariant cfg inputs)
      ~cfg ~inputs ()
  else
    Snapshot_mc.check_all_wirings ?max_states ~reduction ?governor ?ckpt
      ~resume
      ~invariant:(snapshot_invariant cfg inputs)
      ~cfg ~inputs ()

(** RAM-bounded, safety-only variant of {!verify_snapshot_model}: the
    hash-compacted fingerprint engine
    ({!Modelcheck.Explorer.Make.check_all_wirings_fp}) sweeps the same
    wirings under [ram_budget_bytes] of visited-set RAM, spilling sorted
    fingerprint runs to disk past the budget.  The summary's
    [fp_omission_bound] (birthday bound, states² · 2⁻⁶⁴) qualifies the
    verdict; wait-freedom is {e not} decided (no edges are stored) — use
    the exact engines for liveness.  Supports the full
    governor/checkpoint/resume contract of the sequential engine. *)
let verify_snapshot_model_fp ?(n = 3) ?(inputs = None) ?max_states
    ?(reduction = false) ?ram_budget_bytes ?batch_states ?spill_dir ?governor
    ?ckpt ?(resume = false) () =
  let inputs =
    match inputs with Some i -> i | None -> Array.init n (fun i -> i + 1)
  in
  let cfg = Algorithms.Snapshot.standard ~n in
  Snapshot_mc.check_all_wirings_fp ?max_states ~reduction ?ram_budget_bytes
    ?batch_states ?spill_dir ?governor ?ckpt ~resume
    ~invariant:(snapshot_invariant cfg inputs)
    ~cfg ~inputs ()

module Snapshot_fault_mc =
  Modelcheck.Fault_explorer.Make (Modelcheck.Codecs.Snapshot)

(** Exhaustively verify the strong snapshot invariant under at most
    [max_crashes] injected crash-stops: for every wiring (processor 0
    pinned to the identity) and every interleaving, the search also
    branches on crashing any live processor at any point, which covers
    every timed crash-stop plan with at most [max_crashes] crashes.  The
    default [n = 2] completes in well under a second; [n = 3] is feasible
    but expensive (the crash branching multiplies the fault-free space).

    Only safety is checked — crashed processors trivially never
    terminate, so wait-freedom questions under crashes are the fuzzer's
    territory (a crash-stopped processor is exactly one that is never
    scheduled again). *)
let verify_snapshot_model_crashes ?(n = 2) ?(inputs = None) ?(max_crashes = 1)
    ?max_states ?(reduction = false) ?governor () =
  let inputs =
    match inputs with Some i -> i | None -> Array.init n (fun i -> i + 1)
  in
  let cfg = Algorithms.Snapshot.standard ~n in
  Snapshot_fault_mc.check_all_wirings ?max_states ~max_crashes ~reduction
    ?governor
    ~invariant:(snapshot_invariant cfg inputs)
    ~cfg ~inputs ()

module Consensus_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Consensus)

(** Bounded model checking of the Figure-5 consensus algorithm (an
    extension beyond the paper's verification): explore every interleaving
    for [n] processors until some timestamp would exceed [max_ts], checking
    agreement and validity of all decisions along the way.  The timestamp
    bound makes the otherwise-infinite state space finite; safety holds for
    the full algorithm iff it holds for every bound, so each run is a
    genuine bounded-safety certificate. *)
let verify_consensus_bounded ?(n = 2) ?(inputs = None) ?(max_ts = 5)
    ?max_states ?(reduction = false) ?governor () =
  let inputs =
    match inputs with Some i -> i | None -> Array.init n (fun i -> i + 1)
  in
  let cfg = Algorithms.Consensus.standard ~n in
  let participating = Iset.of_list (Array.to_list inputs) in
  let invariant (st : Consensus_mc.state) =
    let decided =
      Array.to_list st.Consensus_mc.locals
      |> List.filter_map (fun l -> l.Algorithms.Consensus.decided)
    in
    match decided with
    | [] -> Ok ()
    | v :: rest ->
        if not (List.for_all (Int.equal v) rest) then
          Error (Fmt.str "agreement violated: %a" Fmt.(list ~sep:comma int) decided)
        else if not (Iset.mem v participating) then
          Error (Fmt.str "validity violated: decided %d" v)
        else Ok ()
  in
  let stop_expansion (st : Consensus_mc.state) =
    Array.exists
      (fun l -> l.Algorithms.Consensus.ts >= max_ts)
      st.Consensus_mc.locals
  in
  Modelcheck.Wiring_sweep.run ~n ~m:n ~init:0
    (fun ~resume:_ ~ckpt_extra:_ wiring total ->
      match
        Consensus_mc.check_exhaustive ?max_states ~fail_on_cycle:false
          ~reduction ?governor ~invariant ~stop_expansion ~cfg ~wiring ~inputs
          ()
      with
      | Consensus_mc.Dfs_ok s -> Ok (total + s.Consensus_mc.dfs_states)
      | Consensus_mc.Dfs_cycle _ -> assert false
      | Consensus_mc.Dfs_invariant_failed { message; _ } ->
          Error (Fmt.str "under wiring %a: %s" Anonmem.Wiring.pp wiring message)
      | Consensus_mc.Dfs_state_limit k -> Error (Fmt.str "state limit at %d" k)
      | Consensus_mc.Dfs_exhausted { reason; stats } ->
          Error
            (Fmt.str "budget exhausted (%a) at %d states"
               Modelcheck.Governor.pp_reason reason
               stats.Consensus_mc.dfs_states))

(** {1 Protocol portfolio verification}

    Model-checking entry points for the literature portfolio
    ({!Algorithms.Rt_mutex}, {!Algorithms.Naming},
    {!Algorithms.Weak_leader}).  Unlike the wait-free snapshot, the mutex
    and the naming layer built on it are only deadlock-free at coprime
    register counts — their spin loops put genuine cycles in the
    transition graph — so verification splits into a state invariant
    (safety) and a fair-SCC search (liveness), both per wiring.  The
    verdicts feed {!Analysis.Feasibility}. *)

(** One verdict shape for every portfolio protocol, structured enough for
    the feasibility map and for witness replay in the test suite.  Paths
    are processor-id step sequences from the initial state
    ({!Modelcheck.Witness.Replay} rematerializes the executions). *)
type verdict =
  | Verified of { wirings : int; states : int }
  | Safety_violation of {
      wiring : Wiring.t;
      message : string;
      path : int list;  (** steps to the violating state (may be empty
                            when the violation was caught at terminal
                            outcomes rather than mid-trace) *)
    }
  | Liveness_violation of {
      wiring : Wiring.t;
      live : int list;  (** the processors spinning forever *)
      stem : int list;  (** steps from the initial state to the cycle *)
      cycle : int list;  (** steps around the fair cycle, stepping every
                             live processor at least once *)
    }
  | Resource_limit of int
  | Exhausted of {
      reason : Modelcheck.Governor.reason;
      states_visited : int;
      checkpoint : string option;
          (** where the engine wrote its final checkpoint, when a
              checkpoint policy was in force — resuming with the same
              policy continues exactly where the budget ran out *)
    }

let pp_verdict ppf = function
  | Verified { wirings; states } ->
      Fmt.pf ppf "verified (%d wirings, %d states)" wirings states
  | Safety_violation { wiring; message; _ } ->
      Fmt.pf ppf "safety violation under wiring %a: %s" Wiring.pp wiring
        message
  | Liveness_violation { wiring; live; _ } ->
      Fmt.pf ppf "deadlock under wiring %a: processors %a spin forever"
        Wiring.pp wiring
        Fmt.(list ~sep:(any ", ") (fun ppf p -> Fmt.pf ppf "p%d" (p + 1)))
        live
  | Resource_limit k -> Fmt.pf ppf "state limit hit at %d states" k
  | Exhausted { reason; states_visited; checkpoint } ->
      Fmt.pf ppf "budget exhausted (%a) after %d states%a"
        Modelcheck.Governor.pp_reason reason states_visited
        Fmt.(option (any "; resume from " ++ string))
        checkpoint

let verdict_is_verified = function Verified _ -> true | _ -> false

(* The portfolio verifiers fold (wirings verified, states so far) over
   the sweep — over whole wirings, or over processor-relabelling classes
   with [~wiring_classes:true]. *)
let portfolio_sweep ?(wiring_classes = false) ?section ?ckpt ?resume ~n ~m
    check =
  let wirings =
    if wiring_classes then Some (Wiring.enumerate_classes ~n ~m) else None
  in
  match
    Modelcheck.Wiring_sweep.run ?wirings ?section ?ckpt ?resume ~n ~m
      ~init:(0, 0) check
  with
  | Ok (wirings, states) -> Verified { wirings; states }
  | Error v -> v

(** The generic engine for a spinning portfolio protocol, plus its
    per-wiring check: explore with the safety invariant, check the task
    at terminal outcomes, then search for a fair SCC and build the lasso
    witness. *)
module Portfolio_mc (P : Modelcheck.Explorer.CHECKABLE with type input = int) =
struct
  include Modelcheck.Explorer.Make (P)

  (* Liveness post-pass: the BFS space was explored clean of safety
     violations; look for a fair SCC.  Detection is exact on reduced
     spaces, but the lasso witness needs concrete states, so a reduced
     hit triggers one unreduced re-exploration (never on a map cell:
     distinct inputs give the identity group, explored unreduced). *)
  let liveness ?max_states ~cfg ~wiring ~inputs space =
    match find_fair_scc space with
    | None -> Ok ()
    | Some (_, live) ->
        let wspace =
          if space.reduction = None then Some space
          else
            match
              explore ?max_states ~reduction:false ~cfg ~wiring ~inputs ()
            with
            | Explored s -> Some s
            | _ -> None
        in
        let live, stem, cycle =
          match Option.map (fun s -> (s, find_fair_scc s)) wspace with
          | Some (s, Some (entry, live)) ->
              ( live,
                List.map fst (trace_to s entry),
                fair_cycle_witness s ~entry ~live )
          | _ -> (live, [], [])
        in
        Error (live, stem, cycle)

  (** Check one wiring; [Ok k] is the wiring's state count.  [states] is
      the sweep's count before this wiring, which an exhausted verdict
      reports on top of the engine's own. *)
  let check_wiring ?max_states ~reduction ?governor ~invariant ~task ~cfg
      ~inputs ~states wiring =
    match
      explore ?max_states ~reduction ?governor ~invariant ~cfg ~wiring ~inputs
        ()
    with
    | State_limit k -> Error (Resource_limit k)
    | Exhausted { reason; states = k } ->
        Error (Exhausted { reason; states_visited = states + k; checkpoint = None })
    | Invariant_failed (_, v) ->
        Error
          (Safety_violation
             { wiring; message = v.message; path = List.map fst v.trace })
    | Explored space -> (
        let bad_terminal =
          List.find_map
            (fun t -> Result.fold ~ok:(fun () -> None) ~error:Option.some (task t))
            (terminal_outcomes space ~group_of_input:Fun.id
               ~to_task_output:Fun.id)
        in
        match bad_terminal with
        | Some e ->
            Error
              (Safety_violation
                 {
                   wiring;
                   message = Fmt.str "%a" Tasks.Task_failure.pp e;
                   path = [];
                 })
        | None -> (
            match liveness ?max_states ~cfg ~wiring ~inputs space with
            | Ok () -> Ok (state_count space)
            | Error (live, stem, cycle) ->
                Error (Liveness_violation { wiring; live; stem; cycle })))

  (** The sweep of {!check_wiring} over every wiring. *)
  let verify ?max_states ~reduction ?wiring_classes ?governor ~invariant ~task
      ~cfg ~inputs ~n ~m () =
    portfolio_sweep ?wiring_classes ~n ~m (fun ~resume:_ ~ckpt_extra:_ wiring
        (wcount, states) ->
        Result.map
          (fun k -> (wcount + 1, states + k))
          (check_wiring ?max_states ~reduction ?governor ~invariant ~task ~cfg
             ~inputs ~states wiring))
end

module Rt_mutex_mc = Portfolio_mc (Modelcheck.Codecs.Rt_mutex)
module Rt_mutex_fault_mc =
  Modelcheck.Fault_explorer.Make (Modelcheck.Codecs.Rt_mutex)
module Weak_leader_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Weak_leader)
module Naming_mc = Portfolio_mc (Modelcheck.Codecs.Naming)
module Naming_fault_mc =
  Modelcheck.Fault_explorer.Make (Modelcheck.Codecs.Naming)

(* The portfolio invariants run on every explored state, so each decides
   with scans of the locals that allocate nothing; only a violation
   builds its message. *)

(* The first index [>= i] of [locals] that satisfies [f], or [-1]. *)
let rec find_from f locals i =
  if i >= Array.length locals then -1
  else if f locals.(i) then i
  else find_from f locals (i + 1)

(* Do two of [locals] satisfy [f]? *)
let two_satisfy f locals =
  let p = find_from f locals 0 in
  p >= 0 && find_from f locals (p + 1) >= 0

(* Every index [>= i] of [locals] that satisfies [f], in order. *)
let rec indices f locals i =
  let p = find_from f locals i in
  if p < 0 then [] else p :: indices f locals (p + 1)

let audit_tripped (l : Algorithms.Rt_mutex.local) =
  match l.phase with Done Cs_intruded -> true | _ -> false

(** Mutual exclusion as a state invariant: at most one processor inside
    the critical section, and no completed audit may have tripped. *)
let mutex_invariant _cfg (st : Rt_mutex_mc.state) =
  let locals = st.Rt_mutex_mc.locals in
  if two_satisfy Algorithms.Rt_mutex.in_cs locals then
    Error
      (Fmt.str "%a" Tasks.Task_failure.pp
         (Tasks.Mutex_task.exclusion_failure
            ~processors:(indices Algorithms.Rt_mutex.in_cs locals 0)))
  else
    match indices audit_tripped locals 0 with
    | [] -> Ok ()
    | intruded ->
        Error
          (Fmt.str "audit tripwire: %a observed an intruder"
             Fmt.(list ~sep:(any ", ") (fun ppf p -> Fmt.pf ppf "p%d" (p + 1)))
             intruded)

(* The packed mutex sweep's checkpoint section: (wirings verified,
   states so far) after the wiring index. *)
let mutex_sweep_section =
  {
    Modelcheck.Wiring_sweep.name = "sweep";
    to_ints = (fun (wcount, states) -> [| wcount; states |]);
    of_ints = (fun a -> (a.(0), a.(1)));
  }

(** Exhaustively verify the symmetric mutex at [(n, m)]: for every wiring
    (processor 0 pinned), explore every interleaving, check mutual
    exclusion along the way, the audit tripwire at terminal outcomes, and
    deadlock-freedom as absence of fair SCCs.  Pass [~cfg] to check a
    planted-bug variant ({!Algorithms.Rt_mutex.cfg_eager}).
    [~wiring_classes:true] additionally quotients the wiring sweep by
    processor relabelling ({!Anonmem.Wiring.enumerate_classes}) — sound
    here because every verdict below is id-agnostic.  [~packed:true]
    sweeps each wiring with the single-word engine
    ({!Modelcheck.Rt_mutex_packed}; same step relation and verdicts, an
    order of magnitude faster — what makes the clean n = 3 feasibility
    cells exhaustively checkable): clean wirings are accepted on its
    word, while any violating or unsupported wiring is re-explored by
    the generic engine below so counterexample witnesses stay concrete
    and replayable.  Only the packed path checkpoints: [ckpt] and
    [resume] go through {!Modelcheck.Wiring_sweep.run}, which re-enters
    mid-sweep and lets the engine restart the wiring mid-exploration. *)
let verify_mutex ?(n = 2) ?(m = 3) ?cfg ?max_states ?(reduction = false)
    ?wiring_classes ?(packed = false) ?governor ?ckpt ?resume () =
  let cfg = match cfg with Some c -> c | None -> Algorithms.Rt_mutex.cfg ~n ~m in
  let n = Algorithms.Rt_mutex.processors cfg in
  let m = Algorithms.Rt_mutex.registers cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  let invariant = mutex_invariant cfg in
  if not packed then
    Rt_mutex_mc.verify ?max_states ~reduction ?wiring_classes ?governor
      ~invariant ~task:Tasks.Mutex_task.check ~cfg ~inputs ~n ~m ()
  else
    let ws = Modelcheck.Rt_mutex_packed.ws () in
    portfolio_sweep ?wiring_classes ~section:mutex_sweep_section ?ckpt ?resume
      ~n ~m (fun ~resume ~ckpt_extra wiring (wcount, states) ->
        let verified k = Ok (wcount + 1, states + k) in
        match
          Modelcheck.Rt_mutex_packed.check_wiring ~ws ?max_states ?governor
            ?ckpt ~ckpt_extra ~resume ~cfg ~wiring ~inputs ()
        with
        | Modelcheck.Rt_mutex_packed.Clean { states = k } -> verified k
        | Modelcheck.Rt_mutex_packed.Limit k -> Error (Resource_limit k)
        | Modelcheck.Rt_mutex_packed.Exhausted { reason; states = k } ->
            Error
              (Exhausted
                 {
                   reason;
                   states_visited = states + k;
                   checkpoint =
                     Option.map (fun p -> p.Modelcheck.Checkpoint.path) ckpt;
                 })
        | Modelcheck.Rt_mutex_packed.Breach
        | Modelcheck.Rt_mutex_packed.Fair_cycle
        | Modelcheck.Rt_mutex_packed.Unsupported ->
            Result.bind
              (Rt_mutex_mc.check_wiring ?max_states ~reduction ?governor
                 ~invariant ~task:Tasks.Mutex_task.check ~cfg ~inputs ~states
                 wiring)
              verified)

(* The first pair [(p', q', name)], [p' < q'], in order from the pair
   [(p, q)], of processors both done with the same name. *)
let rec named_twice (locals : Algorithms.Naming.local array) p q =
  if p >= Array.length locals then None
  else if q >= Array.length locals then named_twice locals (p + 1) (p + 2)
  else
    match (locals.(p).phase, locals.(q).phase) with
    | Done a, Done b when a = b -> Some (p, q, a)
    | _ -> named_twice locals p (q + 1)

(** Name distinctness as a state invariant (inputs are distinct
    identities, so any repeated acquired name is a violation).  The
    flood phase is deliberately {e not} required to be exclusive: each
    flood write releases the register it extends, so a successor can
    legitimately start its own flood before the predecessor's last
    write lands — a benign overlap, serialized by the name ledger
    itself rather than by CS occupancy. *)
let naming_invariant _cfg (st : Naming_mc.state) =
  match named_twice st.Naming_mc.locals 0 1 with
  | None -> Ok ()
  | Some (p, q, k) ->
      Error (Fmt.str "p%d and p%d both acquired name %d" (p + 1) (q + 1) k)

(** Exhaustively verify the desanonymization layer at [(n, m)]:
    distinctness and flood exclusion as invariants, the full naming task
    (distinctness, own-cell inclusion, view containment) at terminal
    outcomes, and deadlock-freedom by fair-SCC search.  The layer runs
    above the mutex, so its feasibility inherits the mutex threshold. *)
let verify_naming ?(n = 2) ?(m = 3) ?cfg ?max_states ?(reduction = false)
    ?wiring_classes ?governor () =
  let cfg = match cfg with Some c -> c | None -> Algorithms.Naming.cfg ~n ~m in
  let n = Algorithms.Naming.processors cfg in
  let m = Algorithms.Naming.registers cfg in
  Naming_mc.verify ?max_states ~reduction ?wiring_classes ?governor
    ~invariant:(naming_invariant cfg) ~task:Tasks.Naming_task.check ~cfg
    ~inputs:(Array.init n (fun i -> i + 1))
    ~n ~m ()

let elected (l : Algorithms.Weak_leader.local) =
  match l.phase with Done Leader -> true | _ -> false

(** Leader uniqueness as a state invariant. *)
let leader_invariant _cfg (st : Weak_leader_mc.state) =
  let locals = st.Weak_leader_mc.locals in
  let p = find_from elected locals 0 in
  let q = if p < 0 then -1 else find_from elected locals (p + 1) in
  if q < 0 then Ok ()
  else
    Error
      (Fmt.str "p%d and p%d both elected themselves leader" (p + 1) (q + 1))

(** Exhaustively verify the weak leader protocol at [(n, m)]: leader
    uniqueness as an invariant and wait-freedom as acyclicity, both via
    the lean DFS engine (the protocol claims wait-freedom, so cycles are
    violations here — no fair-SCC pass needed).  A wait-freedom breach
    reports the spinning processors as a liveness violation. *)
let verify_leader ?(n = 2) ?(m = 3) ?cfg ?max_states ?(reduction = false)
    ?wiring_classes ?governor () =
  let cfg =
    match cfg with Some c -> c | None -> Algorithms.Weak_leader.cfg ~n ~m
  in
  let n = Algorithms.Weak_leader.processors cfg in
  let m = Algorithms.Weak_leader.registers cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  portfolio_sweep ?wiring_classes ~n ~m
    (fun ~resume:_ ~ckpt_extra:_ wiring (wcount, states) ->
      match
        Weak_leader_mc.check_exhaustive ?max_states ~fail_on_cycle:true
          ~reduction ?governor ~invariant:(leader_invariant cfg) ~cfg ~wiring
          ~inputs ()
      with
      | Weak_leader_mc.Dfs_ok stats ->
          Ok (wcount + 1, states + stats.Weak_leader_mc.dfs_states)
      | Weak_leader_mc.Dfs_invariant_failed { message; path; _ } ->
          Error (Safety_violation { wiring; message; path })
      | Weak_leader_mc.Dfs_cycle { processors; _ } ->
          Error
            (Liveness_violation
               { wiring; live = processors; stem = []; cycle = [] })
      | Weak_leader_mc.Dfs_state_limit k -> Error (Resource_limit k)
      | Weak_leader_mc.Dfs_exhausted { reason; stats } ->
          Error
            (Exhausted
               {
                 reason;
                 states_visited = states + stats.Weak_leader_mc.dfs_states;
                 checkpoint = None;
               }))

(** Mutual exclusion under at most [max_crashes] crash-stops: a crashed
    holder deadlocks the lock (liveness is forfeit, as for any one-shot
    mutex under crash-stop) but exclusion must survive.  Exhaustive over
    wirings, interleavings and crash placements. *)
let verify_mutex_crashes ?(n = 2) ?(m = 3) ?cfg ?(max_crashes = 1) ?max_states
    ?(reduction = false) ?governor () =
  let cfg = match cfg with Some c -> c | None -> Algorithms.Rt_mutex.cfg ~n ~m in
  let n = Algorithms.Rt_mutex.processors cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  Rt_mutex_fault_mc.check_all_wirings ?max_states ~max_crashes ~reduction
    ?governor ~invariant:(mutex_invariant cfg) ~cfg ~inputs ()

(** Name distinctness under at most [max_crashes] crash-stops. *)
let verify_naming_crashes ?(n = 2) ?(m = 3) ?cfg ?(max_crashes = 1) ?max_states
    ?(reduction = false) ?governor () =
  let cfg = match cfg with Some c -> c | None -> Algorithms.Naming.cfg ~n ~m in
  let n = Algorithms.Naming.processors cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  Naming_fault_mc.check_all_wirings ?max_states ~max_crashes ~reduction
    ?governor ~invariant:(naming_invariant cfg) ~cfg ~inputs ()

(** Glue between the verifiers above and the pure map of
    {!Analysis.Feasibility}: classify one cell of the (task, n, m) grid
    by exhaustive model checking.

    Durable-run knobs: [wall_seconds] / [heap_words] / [quota] bound the
    cell with a fresh {!Modelcheck.Governor} (disposed afterwards);
    [interrupted_flag] is shared across cells so one SIGINT stops the
    whole sweep; [ckpt_dir] enables engine checkpointing (the packed
    mutex path) to [ckpt_dir/task-n-m.ckpt], with resume always on — a
    budget-exhausted or interrupted cell classifies as
    {!Analysis.Feasibility.Unknown} carrying the checkpoint path, and
    re-running the same cell with the same [ckpt_dir] continues from it. *)
let feasibility_check ?max_states ?(reduction = false)
    ?(wiring_classes = false) ?wall_seconds ?heap_words ?quota
    ?interrupted_flag ?ckpt_dir ~task ~n ~m () =
  let classify = function
    | Verified { wirings; states } ->
        Analysis.Feasibility.Solved { wirings; states }
    | Safety_violation { message; _ } -> Analysis.Feasibility.Safety_broken message
    | Liveness_violation { live; _ } ->
        Analysis.Feasibility.Deadlock
          (Fmt.str "processors %a spin forever"
             Fmt.(list ~sep:(any ", ") (fun ppf p -> Fmt.pf ppf "p%d" (p + 1)))
             live)
    | Resource_limit k -> Analysis.Feasibility.Limit k
    | Exhausted { reason; states_visited; checkpoint } ->
        Analysis.Feasibility.Unknown
          {
            reason = Modelcheck.Governor.reason_to_string reason;
            states = states_visited;
            checkpoint;
          }
  in
  let budgeted =
    wall_seconds <> None || heap_words <> None || quota <> None
    || interrupted_flag <> None
  in
  let governor =
    if budgeted then
      Some
        (Modelcheck.Governor.create ?wall_seconds ?heap_words ?quota
           ?interrupted_flag ())
    else None
  in
  let ckpt =
    Option.map
      (fun dir ->
        {
          Modelcheck.Checkpoint.path =
            Filename.concat dir (Fmt.str "%s-%d-%d.ckpt" task n m);
          every_states = 100_000;
        })
      ckpt_dir
  in
  let verdict =
    match task with
    | "mutex" ->
        verify_mutex ~n ~m ?max_states ~reduction ~wiring_classes
          ~packed:true ?governor ?ckpt ~resume:true ()
    | "naming" ->
        verify_naming ~n ~m ?max_states ~reduction ~wiring_classes ?governor
          ()
    | "leader" ->
        verify_leader ~n ~m ?max_states ~reduction ~wiring_classes ?governor
          ()
    | t ->
        Option.iter Modelcheck.Governor.dispose governor;
        invalid_arg (Fmt.str "feasibility_check: unknown task %S" t)
  in
  Option.iter Modelcheck.Governor.dispose governor;
  (* A finished cell's checkpoint is dead weight (and would poison a
     re-run with a stale context): drop it. *)
  (match (verdict, ckpt) with
  | (Verified _ | Safety_violation _ | Liveness_violation _), Some p
    when Sys.file_exists p.Modelcheck.Checkpoint.path ->
      Sys.remove p.Modelcheck.Checkpoint.path
  | _ -> ());
  classify verdict

(** The empirical feasibility map: every cell of the portfolio grids
    checked exhaustively, each verdict compared against the
    coprimality-threshold prediction.  [quick] restricts to the [n = 2]
    rows (the smoke budget).  [cached] / [on_fresh] / [stop] are the
    durable-run hooks of {!Analysis.Feasibility.run} (journal replay,
    journal append, interrupt); the budget knobs are per cell, as in
    {!feasibility_check}. *)
let feasibility_map ?(quick = false) ?max_states ?reduction ?wiring_classes
    ?wall_seconds ?heap_words ?quota ?interrupted_flag ?ckpt_dir ?on_cell
    ?on_fresh ?cached ?stop () =
  Analysis.Feasibility.run ?on_cell ?on_fresh ?cached ?stop
    ~check:(fun ~task ~n ~m ->
      feasibility_check ?max_states ?reduction ?wiring_classes ?wall_seconds
        ?heap_words ?quota ?interrupted_flag ?ckpt_dir ~task ~n ~m ())
    (Analysis.Feasibility.grids ~quick ())

module Snapshot_witness = Modelcheck.Witness.Search (Algorithms.Snapshot)

let snapshot_memory_set regs =
  Array.fold_left
    (fun acc (v : Algorithms.Snapshot.value) -> Iset.union acc v.view)
    Iset.empty regs

(** Exhaustive non-atomicity witness search for the paper's 3-processor
    configuration using the bit-packed checker, under the implementation's
    cyclic write order unless [write_order] says otherwise: for each
    (inputs, target) candidate, decide by pruned reachability over every
    wiring whether some execution makes a processor return [target]
    although the memory never contains it.  Returns each candidate with
    its outcome, lazily and in order, up to and including the first that
    is not [Refuted].  Candidates start with group assignments, where two
    same-input processors can raise each other's levels while the third
    keeps covering. *)
let find_nonatomic_packed
    ?(candidates =
      [
        ([| 1; 1; 2 |], [ 1 ]);
        ([| 1; 2; 2 |], [ 2 ]);
        ([| 1; 1; 2 |], [ 1; 2 ]);
        ([| 1; 2; 3 |], [ 1; 2 ]);
      ]) ?write_order ?log2_capacity () =
  let wirings = Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true in
  let rec go candidates () =
    match candidates with
    | [] -> Seq.Nil
    | (inputs, target) :: rest ->
        let target_mask = Iset.to_bits (Iset.map (fun i -> i - 1) (Iset.of_list target)) in
        let outcome =
          Modelcheck.Snapshot3.find_nonatomic ?write_order ?log2_capacity ~inputs
            ~target_mask ~wirings ()
        in
        Seq.Cons
          ( (inputs, Iset.of_list target, outcome),
            match outcome with Modelcheck.Snapshot3.Refuted _ -> go rest | _ -> Seq.empty )
  in
  go candidates

(** One report line for a candidate outcome of {!find_nonatomic_packed}. *)
let nonatomic_line (inputs, target, outcome) =
  let candidate =
    Printf.sprintf "inputs (%d,%d,%d), target %s" inputs.(0) inputs.(1)
      inputs.(2) (Iset.to_string target)
  in
  let wiring = Fmt.str "%a" Anonmem.Wiring.pp in
  match (outcome : Modelcheck.Snapshot3.nonatomic) with
  | Nonatomic w ->
      Printf.sprintf
        "%s: witness - processor %d returns %s although the memory never \
         contains it (wiring %s, execution of %d steps)"
        candidate (w.culprit + 1) (Iset.to_string target) (wiring w.wiring)
        (List.length w.path)
  | Refuted { states } ->
      Printf.sprintf "%s: refuted exhaustively over every wiring (%d states)"
        candidate states
  | Undecided { wiring = w; states } ->
      Printf.sprintf
        "%s: undecided - the visited table filled at %d states on wiring %s"
        candidate states (wiring w)
  | Unsafe { wiring = w; result = Cycle { processors; _ } } ->
      Printf.sprintf "%s: WAIT-FREEDOM VIOLATED on wiring %s (processors %s)"
        candidate (wiring w)
        (String.concat "," (List.map (fun p -> string_of_int (p + 1)) processors))
  | Unsafe { wiring = w; _ } ->
      Printf.sprintf "%s: SAFETY VIOLATED - the snapshot invariant fails on wiring %s"
        candidate (wiring w)

(** Search for the Section-8 non-atomicity witness: an execution in which
    some processor's snapshot never equalled the set of inputs present in
    memory at any time. *)
let find_nonatomic_execution ?(n = 3) ?(attempts = 2_000) () =
  let inputs = Array.init n (fun i -> i + 1) in
  let cfg = Algorithms.Snapshot.standard ~n in
  Snapshot_witness.find_nonatomic ~cfg ~inputs
    ~memory_set:(fun regs ->
      Array.fold_left
        (fun acc (v : Algorithms.Snapshot.value) -> Iset.union acc v.view)
        Iset.empty regs)
    ~output_set:Fun.id ~attempts ()
