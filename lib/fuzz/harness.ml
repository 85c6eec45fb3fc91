(** The property-based random-execution harness.

    For a given {!Target.S} the harness repeatedly

    + generates a random case ({!Gen.case}: sizes, wiring, inputs,
      adversary shape) from a derived seed,
    + executes it through {!Anonmem.System}, recording the trace and each
      processor's step count,
    + judges the (possibly partial) outcome with the target's task oracle
      plus a wait-freedom check against the target's step budget,

    and on the first failure turns the executed schedule into a finite
    script and minimizes it by greedy delta-debugging ({!Shrink}) — first
    over the schedule, then over processors, registers and inputs — until
    the counterexample is 1-minimal.  Everything is reproducible: the
    campaign seed determines every case, and a shrunk counterexample
    carries a standalone scripted instance replayable from the command
    line. *)

(** A standalone, fully explicit execution: replaying [script] (with
    [faults] re-injected at the same global step times) from the initial
    state of [(n, m, wiring, inputs)] deterministically reproduces the
    run.  This is the serializable form of a counterexample. *)
type instance = {
  n : int;
  m : int;
  wiring_perms : int list list;
  inputs : int array;
  script : int list;
  faults : Anonmem.Fault.plan;
}

type counterexample = {
  case : Gen.case;  (** the original generated case *)
  original_steps : int;  (** steps of the unshrunk failing run *)
  instance : instance;  (** the shrunk scripted execution *)
  failure : Tasks.Task_failure.t;  (** verdict on the shrunk instance *)
  shrink_runs : int;  (** oracle executions spent shrinking *)
}

type report = {
  seed : int;
  iterations : int;  (** cases executed *)
  total_steps : int;  (** shared-memory steps simulated *)
  elapsed : float;  (** CPU seconds *)
  counterexample : counterexample option;
  found_after : (int * float) option;
      (** iteration index and elapsed seconds at the time of the find *)
}

let ints_1based l = String.concat "," (List.map (fun i -> string_of_int (i + 1)) l)

(** The command line reproducing [inst] through [bin/fuzz.exe replay].
    Wiring rows and script entries are printed 1-based, matching the
    p1/r1 convention of every other renderer in the library. *)
let replay_command ~key inst =
  Printf.sprintf
    "fuzz.exe replay --protocol %s --inputs %s --wiring '%s' --script '%s'%s" key
    (String.concat "," (List.map string_of_int (Array.to_list inst.inputs)))
    (String.concat ";" (List.map ints_1based inst.wiring_perms))
    (ints_1based inst.script)
    (match inst.faults with
    | [] -> ""
    | plan ->
        Printf.sprintf " --fault-plan '%s'" (Anonmem.Fault.to_string plan))

module Make (T : Target.S) = struct
  module Sys = Anonmem.System.Make (T.P)
  module Tr = Anonmem.Trace.Make (T.P)

  type run = {
    stop : Sys.stop_reason;
    steps : int;
    outputs : T.P.output option array;
    step_counts : int array;  (** steps taken by each processor *)
    trace : Tr.t;  (** empty when the run took the untraced fast path *)
  }

  (* [record = false] runs without observers: with no fault plan that is
     {!Sys.run}'s zero-observer fast path — no event records, no trace
     conses, no ghost bookkeeping.  Step counts come from [Sys.run]'s own
     counter either way (it sees dropped writes, which emit no event), so
     verdicts agree between the two modes; only [trace] differs. *)
  let exec ~record ~cfg ~wiring ~inputs ~sched ~faults ~max_steps () =
    let state = Sys.init ~cfg ~wiring ~inputs in
    let trace = Tr.create () in
    let step_counts = Array.make (T.P.processors cfg) 0 in
    let on_event = if record then Some (Tr.on_event trace) else None in
    let on_fault = if record then Some (Tr.on_fault trace) else None in
    let faults = match faults with [] -> None | plan -> Some plan in
    let stop, steps =
      Sys.run ~max_steps ?faults ~step_counts ~sched ?on_event ?on_fault state
    in
    { stop; steps; outputs = Sys.outputs state; step_counts; trace }

  let run_case ?(record = true) (c : Gen.case) =
    exec ~record
      ~cfg:(T.cfg ~n:c.n ~m:c.m)
      ~wiring:(Gen.wiring c) ~inputs:c.inputs
      ~sched:(Schedule.scheduler (Gen.schedule_rng c) c.shape)
      ~faults:c.faults ~max_steps:c.max_steps ()

  let run_instance ?(record = true) inst =
    exec ~record
      ~cfg:(T.cfg ~n:inst.n ~m:inst.m)
      ~wiring:(Anonmem.Wiring.of_lists inst.wiring_perms)
      ~inputs:inst.inputs
      ~sched:(Anonmem.Scheduler.script inst.script)
      ~faults:inst.faults
      ~max_steps:(List.length inst.script + 1)
      ()

  let participated run = Array.map (fun c -> c > 0) run.step_counts

  (** Task oracle plus wait-freedom within the target's step budget. *)
  let verdict ~n ~m ~inputs run =
    match
      T.check ~inputs ~participated:(participated run) ~outputs:run.outputs
    with
    | Error _ as e -> e
    | Ok () -> (
        match T.step_budget ~n ~m with
        | None -> Ok ()
        | Some budget ->
            let live p =
              match run.outputs.(p) with None -> true | Some _ -> false
            in
            let rec find p =
              if p >= Array.length run.step_counts then Ok ()
              else if run.step_counts.(p) >= budget && live p then
                Tasks.Task_failure.failf ~processors:[ p ]
                  ~groups:[ inputs.(p) ] Tasks.Task_failure.Wait_freedom
                  "p%d took %d steps (budget %d) without terminating" (p + 1)
                  run.step_counts.(p) budget
              else find (p + 1)
            in
            find 0)

  (* The shrinker's oracle, called thousands of times per counterexample:
     untraced on purpose. *)
  let verdict_of_instance inst =
    verdict ~n:inst.n ~m:inst.m ~inputs:inst.inputs
      (run_instance ~record:false inst)

  (* ---- shrinking ------------------------------------------------------- *)

  let drop_processor inst p =
    if inst.n <= 1 then None
    else
      Some
        {
          inst with
          n = inst.n - 1;
          inputs =
            Array.init (inst.n - 1) (fun q ->
                inst.inputs.(if q < p then q else q + 1));
          wiring_perms = List.filteri (fun q _ -> q <> p) inst.wiring_perms;
          script =
            List.filter_map
              (fun q ->
                if q = p then None else Some (if q > p then q - 1 else q))
              inst.script;
          faults = Anonmem.Fault.drop_processor ~p inst.faults;
        }

  (* Remove physical register [r]: delete the local index mapped to it in
     every permutation and renumber the remaining physical indices.  Never
     shrinks below the target's register floor: below [m_range] the
     protocol's own feasibility boundary kicks in (e.g. the portfolio
     protocols legitimately misbehave under the coprimality threshold),
     and a "counterexample" there would indict the instance, not the
     protocol. *)
  let drop_register inst r =
    if inst.m <= max 1 (fst (T.m_range ~n:inst.n)) then None
    else
      Some
        {
          inst with
          m = inst.m - 1;
          wiring_perms =
            List.map
              (fun row ->
                List.filter_map
                  (fun phys ->
                    if phys = r then None
                    else Some (if phys > r then phys - 1 else phys))
                  row)
              inst.wiring_perms;
          faults = Anonmem.Fault.drop_register ~reg:r inst.faults;
        }

  let shrink_instance ~fails inst =
    let try_structural shrink indices inst =
      List.fold_left
        (fun inst i ->
          match shrink inst i with
          | Some inst' when fails inst' -> inst'
          | _ -> inst)
        inst indices
    in
    let round inst =
      (* Fault events first: a counterexample that survives without a
         fault was never fault-induced, and the smaller plan keeps every
         later (schedule/processor/register) shrink step cheap. *)
      let inst =
        {
          inst with
          faults =
            Shrink.list
              ~still_failing:(fun f -> fails { inst with faults = f })
              inst.faults;
        }
      in
      let inst =
        {
          inst with
          script =
            Shrink.list
              ~still_failing:(fun s -> fails { inst with script = s })
              inst.script;
        }
      in
      (* Highest index first so earlier indices stay valid after removal. *)
      let inst =
        try_structural drop_processor
          (List.rev (List.init inst.n Fun.id))
          inst
      in
      let inst =
        try_structural drop_register (List.rev (List.init inst.m Fun.id)) inst
      in
      (* Lower each input toward 1, first accepted value wins. *)
      let lower inst p =
        let candidates =
          List.filter_map
            (fun v ->
              if v < inst.inputs.(p) then
                Some
                  {
                    inst with
                    inputs =
                      Array.mapi
                        (fun q g -> if q = p then v else g)
                        inst.inputs;
                  }
              else None)
            (List.init inst.inputs.(p) (fun i -> i + 1))
        in
        Shrink.first_accepted ~still_failing:fails candidates inst
      in
      List.fold_left lower inst (List.init inst.n Fun.id)
    in
    let rec fix rounds inst =
      if rounds = 0 then inst
      else
        let inst' = round inst in
        if inst' = inst then inst else fix (rounds - 1) inst'
    in
    fix 5 inst

  (** Turn a failing run into a 1-minimal scripted counterexample. *)
  let shrink (case : Gen.case) run =
    let runs = ref 0 in
    let fails inst =
      incr runs;
      Result.is_error (verdict_of_instance inst)
    in
    let inst0 =
      {
        n = case.n;
        m = case.m;
        wiring_perms = case.wiring_perms;
        inputs = case.inputs;
        script = Tr.pids run.trace;
        faults = case.faults;
      }
    in
    assert (fails inst0);
    let inst = shrink_instance ~fails inst0 in
    let failure =
      match verdict_of_instance inst with
      | Error f -> f
      | Ok () -> assert false
    in
    {
      case;
      original_steps = run.steps;
      instance = inst;
      failure;
      shrink_runs = !runs;
    }

  (* ---- campaigns ------------------------------------------------------- *)

  (** Cases are claimed in contiguous chunks of this many iterations;
      each chunk's case seeds come from its own splitmix stream, derived
      from [(campaign seed, chunk index)] alone — any domain can
      (re)derive any case, so how chunks land on workers cannot perturb
      what runs. *)
  let chunk_size = 64

  let chunk_stream ~seed c =
    Repro_util.Rng.create ~seed:((seed * 1_000_003) + c)

  (** The seed of case [i]: draw [i mod chunk_size] of chunk
      [i / chunk_size]'s stream.  Workers consume the stream
      sequentially; this standalone form re-derives a single case for
      the shrinking tail and the replay artifacts. *)
  let case_seed ~seed i =
    let rng = chunk_stream ~seed (i / chunk_size) in
    let s = ref 0 in
    for _ = 0 to i mod chunk_size do
      s := Repro_util.Rng.int rng max_int
    done;
    !s

  (** Run a campaign of [iterations] cases across [domains] OCaml 5
      domains (default 1: everything runs inline in the caller's
      domain).  Parallel campaigns fan out over the persistent
      {!Domain_pool} — no domain is spawned per campaign — and workers
      claim chunks of {!chunk_size} cases from a shared atomic counter.
      Every case derives its seed from [(seed, iteration)] alone, and
      the reported counterexample is the one with the {e smallest
      iteration index} that failed — a worker only retires once every
      unclaimed chunk lies wholly above the current minimum failing
      index — so without a [time_budget] the report's deterministic
      fields (iterations, total steps, counterexample, shrunk instance)
      are identical for every domain count.  With a [time_budget] the
      cutoff is wall-clock and the executed prefix becomes
      timing-dependent. *)
  let campaign ?(now = Stdlib.Sys.time) ?time_budget ?(domains = 1) ?m
      ?(n_range = (2, 5)) ?(max_steps = 5_000) ?fault_profile ~seed ~iterations
      () =
    let t0 = now () in
    let nd = max 1 (min domains (max 1 iterations)) in
    let case_with s =
      Gen.case ~seed:s ~n_range ?m ~m_range:T.m_range ?fault_profile
        ~max_steps ()
    in
    let case_of i = case_with (case_seed ~seed i) in
    (* Written at most once per index (by its chunk's claimer); read
       only after every worker has retired. *)
    let steps_of = Array.make (max 1 iterations) 0 in
    let executed = Array.make nd 0 in
    (* Smallest failing iteration index found so far. *)
    let first_fail = Atomic.make max_int in
    let fail_time = Atomic.make infinity in
    let next_chunk = Atomic.make 0 in
    let nchunks = (iterations + chunk_size - 1) / chunk_size in
    let out_of_budget () =
      match time_budget with Some b -> now () -. t0 > b | None -> false
    in
    let worker w =
      let retired = ref false in
      while not !retired do
        let c = Atomic.fetch_and_add next_chunk 1 in
        if c >= nchunks
           || c * chunk_size > Atomic.get first_fail
           || out_of_budget ()
        then retired := true
        else begin
          let rng = chunk_stream ~seed c in
          let stop_at = min iterations ((c + 1) * chunk_size) in
          let i = ref (c * chunk_size) in
          while !i < stop_at
                && !i <= Atomic.get first_fail
                && not (out_of_budget ())
          do
            let case = case_with (Repro_util.Rng.int rng max_int) in
            let run = run_case ~record:false case in
            steps_of.(!i) <- run.steps;
            executed.(w) <- executed.(w) + 1;
            (match verdict ~n:case.n ~m:case.m ~inputs:case.inputs run with
            | Ok () -> ()
            | Error _ ->
                let t = now () -. t0 in
                let rec lower () =
                  let cur = Atomic.get first_fail in
                  if !i < cur then
                    if Atomic.compare_and_set first_fail cur !i then
                      (* Benign race: losing an interleaved store here only
                         perturbs the (timing-only) found_after seconds. *)
                      Atomic.set fail_time t
                    else lower ()
                in
                lower ());
            i := !i + 1
          done
        end
      done
    in
    Domain_pool.parallel ~domains:nd worker;
    let sum_steps upto =
      let total = ref 0 in
      for i = 0 to upto - 1 do
        total := !total + steps_of.(i)
      done;
      !total
    in
    match Atomic.get first_fail with
    | k when k < max_int ->
        (* Re-execute the winning case with the trace recorder (identical
           schedule: same derived seed) and shrink it here, in the
           caller's domain — the deterministic tail of the campaign. *)
        let case = case_of k in
        let run = run_case case in
        let cex = shrink case run in
        {
          seed;
          iterations = k + 1;
          total_steps = sum_steps (k + 1);
          elapsed = now () -. t0;
          counterexample = Some cex;
          found_after = Some (k, Atomic.get fail_time);
        }
    | _ ->
        {
          seed;
          iterations = Array.fold_left ( + ) 0 executed;
          total_steps = sum_steps iterations;
          elapsed = now () -. t0;
          counterexample = None;
          found_after = None;
        }

  (* ---- rendering ------------------------------------------------------- *)

  (** The shrunk execution as a step table — the [Anonmem.Trace] artifact
      of the counterexample. *)
  let trace_table inst =
    let run = run_instance inst in
    Tr.to_table (T.cfg ~n:inst.n ~m:inst.m) run.trace

  let pp_counterexample ~key ppf cex =
    let inst = cex.instance in
    Fmt.pf ppf
      "@[<v>counterexample (shrunk from %d to %d steps, %d shrink runs)@,\
       %a@,\
       shrunk instance: n=%d m=%d inputs %a wiring %a@,\
       script: %s@,\
       %afailure: %a@,\
       replay: %s@,\
       @,\
       %a@]"
      cex.original_steps
      (List.length inst.script)
      cex.shrink_runs Gen.pp cex.case inst.n inst.m
      Fmt.(array ~sep:(any ",") int)
      inst.inputs Anonmem.Wiring.pp
      (Anonmem.Wiring.of_lists inst.wiring_perms)
      (ints_1based inst.script)
      (fun ppf -> function
        | [] -> ()
        | plan -> Fmt.pf ppf "faults: %a@," Anonmem.Fault.pp plan)
      inst.faults Tasks.Task_failure.pp cex.failure
      (replay_command ~key inst)
      Repro_util.Text_table.pp (trace_table inst)

  let pp_report ~key ppf r =
    let rate =
      if r.elapsed > 0. then float_of_int r.iterations /. r.elapsed else 0.
    in
    Fmt.pf ppf
      "@[<v>%s: %d cases, %d shared-memory steps, %.2fs CPU (%.0f cases/s), \
       seed %d@,"
      key r.iterations r.total_steps r.elapsed rate r.seed;
    (match (r.counterexample, r.found_after) with
    | Some cex, Some (i, t) ->
        Fmt.pf ppf "failure found at iteration %d (%.2fs):@,%a" i t
          (pp_counterexample ~key) cex
    | Some cex, None ->
        Fmt.pf ppf "failure found:@,%a" (pp_counterexample ~key) cex
    | None, _ -> Fmt.pf ppf "no counterexample found");
    Fmt.pf ppf "@]"

  (** The timing-free rendering of a report: everything in it is a
      deterministic function of [(seed, iterations, campaign parameters)],
      so for a budget-less campaign this string is byte-identical across
      domain counts (test/test_fuzz.ml pins that down for 1, 2 and 4
      domains). *)
  let deterministic_summary ~key r =
    Fmt.str "@[<v>%s seed %d: %d cases, %d shared-memory steps@,%a@]" key
      r.seed r.iterations r.total_steps
      (fun ppf -> function
        | None -> Fmt.pf ppf "no counterexample"
        | Some cex ->
            Fmt.pf ppf "failure at iteration %d@,%a"
              (match r.found_after with Some (i, _) -> i | None -> -1)
              (pp_counterexample ~key) cex)
      r.counterexample
end
