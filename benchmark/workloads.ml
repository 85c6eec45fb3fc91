(* The benchmark's adapter to the library: every call into the
   repository's code is in this file, so an API change breaks exactly
   one file of the benchmark.  Each workload calls the same entry
   points the command-line tools call; the tools themselves cannot
   express these workloads (check-snapshot has no wiring selection,
   feasibility has no per-cell quota).

   Seeds.  The model-checking workloads draw an isomorphic copy of fixed
   wirings from the seed: processors and registers are relabelled by a
   seed-chosen pair of permutations.  With every input equal, the
   relabelled system is isomorphic to the original, so states,
   transitions and verdicts are pinned for every seed while the visited
   keys, their hashes and the DFS order change with it.  The fuzz
   campaign takes the seed as its campaign seed.  The feasibility
   workload is seed-independent. *)

module Wiring = Anonmem.Wiring
module Permutation = Repro_util.Permutation
module Snap = Modelcheck.Codecs.Snapshot
module Mc = Core.Snapshot_mc

type size = Full | Smoke

let names = [ "mc-exact"; "mc-reduced"; "mc-fingerprint"; "fuzz-campaign"; "feasibility" ]

type outcome = {
  work : int;
      (** states visited (model checking, feasibility) or shared-memory
          steps executed (fuzzing): the numerator of [work_per_s] *)
  counts : (string * int) list;
      (** exact counts; identical for every repeat of one seed *)
  layer_counts : (string * int) list;  (** per-layer call counters *)
  errors : string list;  (** failed correctness checks *)
}

let domains () = min 2 (Domain.recommended_domain_count ())

(* ---- checks ------------------------------------------------------------ *)

let expect name ~want got =
  if want = got then [] else [ Printf.sprintf "%s: %d, expected %d" name got want ]

(* Pinned counts: the outcome's counts must include every pin. *)
let check_pins pins counts =
  List.concat_map
    (fun (k, want) ->
      match List.assoc_opt k counts with
      | Some got -> expect k ~want got
      | None -> [ k ^ ": not reported" ])
    pins

(* ---- the Figure-3 snapshot model --------------------------------------- *)

(* An isomorphic copy of [w]: processor [pi p] runs with [w]'s
   permutation of [p], composed with the register relabelling [rho].
   Seed 0 is the identity pair, i.e. [w] itself. *)
let relabel ~seed w =
  let n = Wiring.processors w and m = Wiring.registers w in
  let s = seed land max_int in
  let pis = Array.of_list (Permutation.enumerate n) in
  let rhos = Array.of_list (Permutation.enumerate m) in
  let pi = pis.(s mod Array.length pis) in
  let rho = rhos.(s / Array.length pis mod Array.length rhos) in
  let pi_inv = Permutation.inverse pi in
  Wiring.make
    (Array.init n (fun p ->
         Permutation.compose rho (Wiring.perm w ~p:(Permutation.apply pi_inv p))))

(* Fixed wirings, by their position in [Wiring.enumerate ~fix_first:true]:
   n=3 positions 0 (the identity, whose symmetry group under equal inputs
   has order 6) and 9 (a trivial group); n=2 position 1. *)
let w_identity = Wiring.of_lists [ [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ] ]
let w_trivial = Wiring.of_lists [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 2; 0 ] ]
let w2_swap = Wiring.of_lists [ [ 0; 1 ]; [ 1; 0 ] ]

(* The seed's copy of the wiring the reduced workloads and the probes
   explore. *)
let quotient_wiring ~seed size =
  relabel ~seed (match size with Full -> w_identity | Smoke -> w2_swap)

(* Per-call counters of traced model-checking units, bumped by the
   [Counted] codec below. *)
let step_calls = ref 0
let encode_calls = ref 0
let decode_calls = ref 0
let invariant_calls = ref 0

let call_counts () =
  [
    ("algorithms.step_calls", !step_calls);
    ("modelcheck.encode_calls", !encode_calls);
    ("modelcheck.decode_calls", !decode_calls);
    ("core.invariant_calls", !invariant_calls);
  ]

(* Wraps a checkable protocol so the real engine counts every call it
   makes into the step machine and the codec. *)
module Counted (P : Modelcheck.Explorer.CHECKABLE) = struct
  include P

  let next cfg l =
    incr step_calls;
    P.next cfg l

  let apply_read cfg l ~reg v =
    incr step_calls;
    P.apply_read cfg l ~reg v

  let apply_write cfg l =
    incr step_calls;
    P.apply_write cfg l

  let encode_value cfg v b o =
    incr encode_calls;
    P.encode_value cfg v b o

  let encode_local cfg l b o =
    incr encode_calls;
    P.encode_local cfg l b o

  let decode_value cfg b o =
    incr decode_calls;
    P.decode_value cfg b o

  let decode_local cfg b o =
    incr decode_calls;
    P.decode_local cfg b o
end

module Traced_mc = Modelcheck.Explorer.Make (Counted (Snap))

let traced_invariant cfg inputs =
  let check = Core.snapshot_invariant cfg inputs in
  fun (st : Traced_mc.state) ->
    incr invariant_calls;
    check { Mc.locals = st.Traced_mc.locals; registers = st.Traced_mc.registers }

(* One span per wiring, cut at the sweep's [on_wiring] callbacks. *)
let wiring_spans () =
  let last = ref (Spans.now_ns ()) in
  fun _wiring _summary ->
    let now = Spans.now_ns () in
    Spans.add "modelcheck.wiring" ~start_ns:!last ~end_ns:now;
    last := now

let mc_model ~size =
  match size with
  | Full -> (Algorithms.Snapshot.standard ~n:3, [| 1; 1; 1 |])
  | Smoke -> (Algorithms.Snapshot.standard ~n:2, [| 1; 1 |])

(* The production sequential DFS sweep ([Core.verify_snapshot_model]'s
   engine and invariant) over a chosen wiring list. *)
let mc_sweep ~traced ~reduction ~size wirings =
  let cfg, inputs = mc_model ~size in
  let result =
    Spans.with_span "modelcheck.check_all_wirings"
      ~counts:(fun _ -> call_counts ())
      (fun () ->
        if traced then
          Traced_mc.check_all_wirings ~on_wiring:(wiring_spans ()) ~wirings ~reduction
            ~invariant:(traced_invariant cfg inputs) ~cfg ~inputs ()
        else
          Mc.check_all_wirings ~wirings ~reduction
            ~invariant:(Core.snapshot_invariant cfg inputs) ~cfg ~inputs ())
  in
  match result with
  | Error e -> { work = 0; counts = []; layer_counts = []; errors = [ e ] }
  | Ok s ->
      let open Modelcheck.Explorer in
      let counts =
        [
          ("wirings", s.wirings_checked);
          ("states", s.total_states);
          ("transitions", s.total_transitions);
          ("terminals", s.terminal_states);
        ]
      in
      {
        work = s.total_states;
        counts;
        layer_counts = ("modelcheck.states", s.total_states) :: call_counts ();
        errors = (if s.all_wait_free then [] else [ "not wait-free" ]);
      }

let mc_fp_sweep ~traced ~size ~tmp wirings =
  let cfg, inputs = mc_model ~size in
  let ram_budget_bytes = match size with Full -> 1 lsl 20 | Smoke -> 1 lsl 10 in
  let spill_dir = Filename.concat tmp "spill" in
  let result =
    Spans.with_span "modelcheck.check_all_wirings_fp"
      ~counts:(fun _ -> call_counts ())
      (fun () ->
        if traced then
          Traced_mc.check_all_wirings_fp ~on_wiring:(wiring_spans ()) ~wirings
            ~reduction:true ~ram_budget_bytes ~spill_dir
            ~invariant:(traced_invariant cfg inputs) ~cfg ~inputs ()
        else
          Mc.check_all_wirings_fp ~wirings ~reduction:true ~ram_budget_bytes ~spill_dir
            ~invariant:(Core.snapshot_invariant cfg inputs) ~cfg ~inputs ())
  in
  match result with
  | Error e -> { work = 0; counts = []; layer_counts = []; errors = [ e ] }
  | Ok s ->
      let open Modelcheck.Explorer in
      {
        work = s.fp_total_states;
        counts =
          [
            ("wirings", s.fp_wirings);
            ("states", s.fp_total_states);
            ("transitions", s.fp_total_transitions);
            ("spilled_runs", s.fp_spilled_runs);
            ("spill_bytes", s.fp_spill_bytes);
          ];
        layer_counts = ("modelcheck.states", s.fp_total_states) :: call_counts ();
        errors = [];
      }

(* ---- fuzzing ------------------------------------------------------------- *)

(* fuzz.exe's default sizes (n 2..5, m = n, 5000-step budget).  rt_mutex
   is left out: at seed 0 its campaign reports a real mutual-exclusion
   counterexample (duplicate identities), which belongs to its own
   triage and not inside a throughput metric. *)
let fuzz_targets = function
  | Full ->
      [
        ("snapshot", 25_000);
        ("renaming", 25_000);
        ("consensus", 12_500);
        ("naming", 12_500);
        ("weak_leader", 25_000);
      ]
  | Smoke ->
      [
        ("snapshot", 500);
        ("renaming", 500);
        ("consensus", 250);
        ("naming", 250);
        ("weak_leader", 500);
      ]

let fuzz_campaign ~seed ~size =
  let domains = domains () in
  let per_target =
    List.map
      (fun (key, iterations) ->
        let (module T : Fuzzing.Target.S) = Option.get (Fuzzing.Targets.find key) in
        let module H = Fuzzing.Harness.Make (T) in
        let r =
          Spans.with_span ("fuzz.campaign." ^ key)
            ~counts:(fun (r : Fuzzing.Harness.report) ->
              [ ("cases", r.iterations); ("steps", r.total_steps) ])
            (fun () ->
              H.campaign ~now:Unix.gettimeofday ~domains ~seed ~iterations ())
        in
        let errors =
          (match r.counterexample with
          | None -> []
          | Some cex ->
              [
                Printf.sprintf "%s: counterexample found: %s" key
                  (Fuzzing.Harness.replay_command ~key cex.instance);
              ])
          @ expect (key ^ " cases") ~want:iterations r.iterations
        in
        (key, r.iterations, r.total_steps, errors))
      (fuzz_targets size)
  in
  let steps = List.fold_left (fun acc (_, _, s, _) -> acc + s) 0 per_target in
  {
    work = steps;
    counts =
      List.concat_map
        (fun (k, cases, steps, _) -> [ ("cases." ^ k, cases); ("steps." ^ k, steps) ])
        per_target;
    layer_counts = [ ("modelcheck.states", 0) ] @ call_counts ();
    errors = List.concat_map (fun (_, _, _, e) -> e) per_target;
  }

(* ---- the feasibility map -------------------------------------------------- *)

module F = Analysis.Feasibility

(* The quick map as `anonsim feasibility --quick` runs it, with a span
   per cell cut at [~on_cell]; also returns the longest cell. *)
let feasibility_map ~traced =
  let last = ref 0 and longest = ref 0 in
  let on_cell (c : F.cell) =
    let now = Spans.now_ns () in
    longest := max !longest (now - !last);
    if traced then
      Spans.add
        (Printf.sprintf "core.feasibility_check.%s-%d-%d" c.F.task c.F.n c.F.m)
        ~start_ns:!last ~end_ns:now;
    last := now
  in
  let cells =
    Spans.with_span "core.feasibility_map" (fun () ->
        last := Spans.now_ns ();
        Core.feasibility_map ~quick:true ~reduction:true ~wiring_classes:true ~on_cell ())
  in
  (cells, !longest)

let map_states cells =
  List.fold_left
    (fun acc c -> match c.F.status with F.Solved { states; _ } -> acc + states | _ -> acc)
    0 cells

let confirmed cells =
  List.length (List.filter (fun c -> F.confirms c.F.expectation c.F.status) cells)

(* The mutex (3,5) cell — the map's dominant cost — stopped by a state
   quota, on the packed engine the map uses; with [ckpt_dir] it also
   writes the production periodic checkpoints.  Returns the states
   reached, the checkpoint path and the errors. *)
let mutex_quota ?ckpt_dir ~quota () =
  let name =
    if ckpt_dir = None then "core.feasibility_check.quota"
    else "core.feasibility_check.quota_ckpt"
  in
  match
    Spans.with_span name (fun () ->
        Core.feasibility_check ~reduction:true ~wiring_classes:true ~quota ?ckpt_dir
          ~task:"mutex" ~n:3 ~m:5 ())
  with
  | F.Unknown { reason = "quota"; states; checkpoint } -> (states, checkpoint, [])
  | s -> (0, None, [ Fmt.str "mutex (3,5) under quota %d: %a" quota F.pp_status s ])

(* An empty directory [name] under [tmp]: a checkpoint left in it would
   be resumed. *)
let fresh_dir tmp name =
  let dir = Filename.concat tmp name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let file_bytes path = (Unix.stat path).Unix.st_size

(* The checkpoint left behind must load; returns its size. *)
let check_checkpoint = function
  | None -> (0, [ "no checkpoint written" ])
  | Some path -> (
      match Modelcheck.Checkpoint.load ~path with
      | [] -> (0, [ "checkpoint has no sections" ])
      | _ -> (file_bytes path, [])
      | exception e -> (0, [ "checkpoint does not load: " ^ Printexc.to_string e ]))

let quota = function Full -> 1_000_000 | Smoke -> 400_000

let feasibility ~traced ~size ~tmp =
  let cells, _ = feasibility_map ~traced in
  let plain_states, _, plain_errors = mutex_quota ~quota:(quota size) () in
  let ckpt_dir = fresh_dir tmp "ckpt" in
  let ckpt_states, ckpt, ckpt_errors = mutex_quota ~ckpt_dir ~quota:(quota size) () in
  let ckpt_bytes, load_errors = check_checkpoint ckpt in
  let states = map_states cells in
  {
    work = states + plain_states + ckpt_states;
    counts =
      [
        ("map_cells", List.length cells);
        ("map_confirmed", confirmed cells);
        ("map_states", states);
        ("quota_states", plain_states);
        ("ckpt_states", ckpt_states);
        ("ckpt_bytes", ckpt_bytes);
      ];
    layer_counts = [ ("modelcheck.states", states + plain_states + ckpt_states) ] @ call_counts ();
    errors =
      plain_errors @ ckpt_errors @ load_errors
      @ expect "confirmed cells" ~want:(List.length cells) (confirmed cells);
  }

(* ---- workloads ------------------------------------------------------------ *)

(* Counts every repeat must reproduce, at every seed (fuzz-campaign: at
   seed 0 only, its counts depend on the seed). *)
let pins name ~seed ~size =
  match (name, size) with
  | "mc-exact", Full ->
      [ ("wirings", 1); ("states", 1_721_671); ("transitions", 4_979_918) ]
  | "mc-exact", Smoke -> [ ("wirings", 1); ("states", 368); ("transitions", 654) ]
  | "mc-reduced", Full -> [ ("wirings", 1); ("states", 335_983); ("transitions", 974_235) ]
  | "mc-reduced", Smoke -> [ ("wirings", 1); ("states", 189); ("transitions", 335) ]
  | "mc-fingerprint", Full ->
      (* parity with the exact engine on the same quotient (mc-reduced) *)
      [ ("wirings", 1); ("states", 335_983); ("transitions", 974_235); ("spilled_runs", 3) ]
  | "mc-fingerprint", Smoke -> [ ("wirings", 1); ("states", 189); ("transitions", 335) ]
  | "fuzz-campaign", Full when seed = 0 ->
      [
        ("steps.snapshot", 4_211_562);
        ("steps.renaming", 4_211_562);
        ("steps.consensus", 5_494_521);
        ("steps.naming", 2_703_304);
        ("steps.weak_leader", 1_151_475);
      ]
  | "feasibility", Full ->
      [ ("map_cells", 14); ("quota_states", 250_030); ("ckpt_states", 250_030) ]
  | "feasibility", Smoke ->
      [ ("map_cells", 14); ("quota_states", 100_129); ("ckpt_states", 100_129) ]
  | _ -> []

let reset_counters () =
  step_calls := 0;
  encode_calls := 0;
  decode_calls := 0;
  invariant_calls := 0

(* Build the inputs of [name] (the set-up the parent times up to the
   child's "ready"); the returned function does the timed work. *)
let prepare name ~seed ~size ~tmp =
  let with_pins run ~traced =
    reset_counters ();
    let o = run ~traced in
    { o with errors = o.errors @ check_pins (pins name ~seed ~size) o.counts }
  in
  let run =
    match name with
    | "mc-exact" ->
        (* the smallest unreduced space of any n=3 wiring class *)
        let wirings = [ relabel ~seed (match size with Full -> w_trivial | Smoke -> w2_swap) ] in
        fun ~traced -> mc_sweep ~traced ~reduction:false ~size wirings
    | "mc-reduced" ->
        let wirings = [ quotient_wiring ~seed size ] in
        fun ~traced -> mc_sweep ~traced ~reduction:true ~size wirings
    | "mc-fingerprint" ->
        let wirings = [ quotient_wiring ~seed size ] in
        fun ~traced -> mc_fp_sweep ~traced ~size ~tmp wirings
    | "fuzz-campaign" -> fun ~traced:_ -> fuzz_campaign ~seed ~size
    | "feasibility" -> fun ~traced -> feasibility ~traced ~size ~tmp
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  with_pins run

(* ---- layer probes ----------------------------------------------------------- *)

(* Per-call costs of each layer, measured at its public entry points on
   fixed seeded inputs, identical whichever workload is traced.  The
   workload's own call counters say how often it pays each cost. *)

type metric = { name : string; value : float; unit : string }

let median_time ?(repeats = 3) f =
  Quantiles.median
    (List.init repeats (fun _ ->
         let t0 = Unix.gettimeofday () in
         f ();
         Unix.gettimeofday () -. t0))

let ns_per total calls = total *. 1e9 /. float_of_int (max 1 calls)
let mib bytes = float_of_int bytes /. 1048576.

(* The first [expand] states of a BFS over the unreduced space, with the
   successor states and keys the engine derives from them. *)
let key_stream ~cfg ~wiring ~inputs ~expand =
  let seen = Hashtbl.create (4 * expand) in
  let queue = Queue.create () in
  let k0 = Mc.encode_state cfg (Mc.init_state ~cfg ~inputs) in
  Hashtbl.replace seen k0 ();
  Queue.push k0 queue;
  let expanded = ref [] and succs = ref [] and count = ref 0 in
  while !count < expand && not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    incr count;
    expanded := key :: !expanded;
    let st = Mc.decode_state cfg key in
    List.iter
      (fun p ->
        let st' = Mc.successor cfg wiring st p in
        let k' = Mc.encode_state cfg st' in
        succs := (st', k') :: !succs;
        if not (Hashtbl.mem seen k') then begin
          Hashtbl.replace seen k' ();
          Queue.push k' queue
        end)
      (Mc.enabled cfg st)
  done;
  (Array.of_list (List.rev !expanded), Array.of_list (List.rev !succs))

let codec_probe ~seed ~size ~tmp =
  let cfg, inputs = mc_model ~size in
  let wiring = quotient_wiring ~seed size in
  let expand = match size with Full -> 40_000 | Smoke -> 500 in
  let expanded, succs = key_stream ~cfg ~wiring ~inputs ~expand in
  let states = Array.map (Mc.decode_state cfg) expanded in
  let n = Algorithms.Snapshot.processors cfg in
  let nsucc = Array.length succs in
  let keys = Array.map snd succs in
  let each a f =
    median_time (fun () -> Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) a)
  in
  let decode = each expanded (Mc.decode_state cfg) in
  let steps = ref 0 in
  let step =
    median_time (fun () ->
        steps := 0;
        Array.iter
          (fun (st : Mc.state) ->
            for p = 0 to n - 1 do
              if Snap.next cfg st.Mc.locals.(p) <> None then begin
                incr steps;
                ignore (Sys.opaque_identity (Mc.successor cfg wiring st p))
              end
            done)
          states)
  in
  let encode = each succs (fun (st, _) -> Mc.encode_state cfg st) in
  let invariant_ok = ref true in
  let check = Core.snapshot_invariant cfg inputs in
  let invariant =
    median_time (fun () ->
        Array.iter (fun (st, _) -> if check st <> Ok () then invariant_ok := false) succs)
  in
  let canon = Mc.canon_of ~cfg ~wiring ~inputs in
  let canon_t = each keys (Modelcheck.Canon.canonicalize canon) in
  let table = ref (Modelcheck.State_table.create ~key_width:(Mc.key_width cfg) ()) in
  let intern =
    median_time (fun () ->
        let t = Modelcheck.State_table.create ~key_width:(Mc.key_width cfg) () in
        Array.iter (fun k -> ignore (Modelcheck.State_table.intern t k)) keys;
        table := t)
  in
  let distinct = Modelcheck.State_table.length !table in
  let fp_dir = Filename.concat tmp "fp" in
  let spill_bytes = ref 0 in
  let fp =
    median_time (fun () ->
        let set =
          Modelcheck.Fingerprint_set.create ~ram_budget_bytes:(64 * 1024) ~dir:fp_dir ()
        in
        let chunk = 16_384 in
        let i = ref 0 in
        while !i < nsucc do
          let len = min chunk (nsucc - !i) in
          ignore (Modelcheck.Fingerprint_set.add_batch set (Array.sub keys !i len));
          i := !i + len
        done;
        spill_bytes := Modelcheck.Fingerprint_set.spill_bytes set;
        if Modelcheck.Fingerprint_set.cardinal set <> distinct then invariant_ok := false;
        Modelcheck.Fingerprint_set.close set)
  in
  (* A checkpoint image the size of the interned table, saved the way
     the engines save theirs (write, fsync, rename). *)
  let image = Modelcheck.State_table.serialize !table in
  let path = Filename.concat tmp "probe.ckpt" in
  let save = median_time (fun () -> Modelcheck.Checkpoint.save ~path [ ("table", image) ]) in
  let metrics =
    [
      { name = "algorithms.step_ns"; value = ns_per step !steps; unit = "ns" };
      { name = "modelcheck.encode_ns"; value = ns_per encode nsucc; unit = "ns" };
      { name = "modelcheck.decode_ns"; value = ns_per decode (Array.length expanded); unit = "ns" };
      { name = "core.invariant_ns"; value = ns_per invariant nsucc; unit = "ns" };
      { name = "modelcheck.canon_ns"; value = ns_per canon_t nsucc; unit = "ns" };
      { name = "modelcheck.intern_ns"; value = ns_per intern nsucc; unit = "ns" };
      {
        name = "modelcheck.table_bytes_per_state";
        value =
          float_of_int (Modelcheck.State_table.words !table * (Sys.word_size / 8))
          /. float_of_int distinct;
        unit = "bytes";
      };
      { name = "modelcheck.fp_add_ns"; value = ns_per fp nsucc; unit = "ns" };
      { name = "modelcheck.fp_spill_mib"; value = mib !spill_bytes; unit = "MiB" };
      {
        name = "modelcheck.ckpt_save_mib_per_s";
        value = mib (Bytes.length image) /. save;
        unit = "MiB/s";
      };
    ]
  in
  (metrics, if !invariant_ok then [] else [ "codec probe: invariant or fingerprint parity failed" ])

(* Checkpoint overhead on the packed mutex engine: the same quota with
   and without the production periodic checkpoints. *)
let ckpt_probe ~size ~tmp =
  let quota = match size with Full -> 1_000_000 | Smoke -> 200_000 in
  let t0 = Unix.gettimeofday () in
  let plain, _, e1 = mutex_quota ~quota () in
  let t1 = Unix.gettimeofday () in
  let ckpt_dir = fresh_dir tmp "ckpt-probe" in
  let with_ckpt, ckpt, e2 = mutex_quota ~ckpt_dir ~quota () in
  let t2 = Unix.gettimeofday () in
  let bytes, e3 = check_checkpoint ckpt in
  ( [
      {
        name = "modelcheck.packed_states_per_s";
        value = float_of_int plain /. (t1 -. t0);
        unit = "1/s";
      };
      { name = "modelcheck.ckpt_overhead_s"; value = t2 -. t1 -. (t1 -. t0); unit = "s" };
      { name = "modelcheck.ckpt_final_mib"; value = mib bytes; unit = "MiB" };
    ],
    e1 @ e2 @ e3 @ expect "ckpt probe states" ~want:plain with_ckpt )

let analysis_probe () =
  let t0 = Unix.gettimeofday () in
  let cells, longest = feasibility_map ~traced:false in
  ( [
      { name = "analysis.quick_map_s"; value = Unix.gettimeofday () -. t0; unit = "s" };
      { name = "analysis.cell_max_s"; value = float_of_int longest /. 1e9; unit = "s" };
    ],
    expect "probe map confirmed" ~want:(List.length cells) (confirmed cells) )

(* Per-case costs of the fuzzing pipeline at one domain: generation,
   untraced execution and the oracle, each timed over the whole batch. *)
let fuzz_probe ~seed ~size =
  let module T = Fuzzing.Targets.Snapshot in
  let module H = Fuzzing.Harness.Make (T) in
  let k = match size with Full -> 3_000 | Smoke -> 200 in
  let seeds = Array.init k (fun i -> H.case_seed ~seed i) in
  let gen_case s =
    Fuzzing.Gen.case ~seed:s ~n_range:(2, 5) ~m_range:T.m_range ~max_steps:5_000 ()
  in
  let t0 = Unix.gettimeofday () in
  let cases = Array.map gen_case seeds in
  let t1 = Unix.gettimeofday () in
  let alloc () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let a0 = alloc () in
  let runs = Array.map (fun c -> H.run_case ~record:false c) cases in
  let a1 = alloc () in
  let t2 = Unix.gettimeofday () in
  let verdicts =
    Array.map2 (fun (c : Fuzzing.Gen.case) r ->
        H.verdict ~n:c.Fuzzing.Gen.n ~m:c.Fuzzing.Gen.m ~inputs:c.Fuzzing.Gen.inputs r) cases runs
  in
  let t3 = Unix.gettimeofday () in
  let steps = Array.fold_left (fun acc (r : H.run) -> acc + r.H.steps) 0 runs in
  let failures = Array.fold_left (fun acc v -> acc + Bool.to_int (Result.is_error v)) 0 verdicts in
  (* Campaign wall time at one domain and at the benchmark's domain count. *)
  let iterations = match size with Full -> 20_000 | Smoke -> 1_000 in
  let campaign domains =
    let t = Unix.gettimeofday () in
    let r = H.campaign ~now:Unix.gettimeofday ~domains ~seed ~iterations () in
    (Unix.gettimeofday () -. t, r)
  in
  let t_one, r_one = campaign 1 in
  let t_many, r_many = campaign (domains ()) in
  ( [
      { name = "fuzz.gen_ns_per_case"; value = ns_per (t1 -. t0) k; unit = "ns" };
      { name = "fuzz.exec_ns_per_step"; value = ns_per (t2 -. t1) steps; unit = "ns" };
      { name = "fuzz.verdict_ns_per_case"; value = ns_per (t3 -. t2) k; unit = "ns" };
      {
        name = "fuzz.alloc_words_per_step";
        value = (a1 -. a0) /. float_of_int (max 1 steps);
        unit = "words";
      };
      { name = "fuzz.domain_speedup"; value = t_one /. t_many; unit = "ratio" };
    ],
    expect "fuzz probe failing cases" ~want:0 failures
    @ expect "campaign steps across domain counts" ~want:r_one.total_steps r_many.total_steps
    @ (if r_one.counterexample = None && r_many.counterexample = None then []
       else [ "fuzz probe campaign found a counterexample" ]) )

(* The opt-in parallel engines against the sequential BFS on a bounded
   reduced space: two processors past their first scan stop expanding. *)
let parallel_probe ~seed ~size =
  let cfg, inputs = mc_model ~size in
  let wiring = quotient_wiring ~seed size in
  let bound = match size with Full -> 2 | Smoke -> 1 in
  let stop locals =
    Array.fold_left
      (fun c l -> if Algorithms.Snapshot.level_of_local l >= 1 then c + 1 else c)
      0 locals
    >= bound
  in
  let domains = domains () in
  let seq = ref (0, 0) and par = ref (0, 0) and ws = ref (0, 0) in
  let t_seq =
    median_time (fun () ->
        match
          Mc.explore ~reduction:true ~stop_expansion:(fun st -> stop st.Mc.locals) ~cfg ~wiring
            ~inputs ()
        with
        | Mc.Explored sp -> seq := (Mc.state_count sp, Mc.transition_count sp)
        | _ -> seq := (-1, -1))
  in
  let module Par = Core.Snapshot_par_mc in
  let t_par =
    median_time (fun () ->
        match
          Par.explore ~reduction:true ~domains
            ~stop_expansion:(fun st -> stop st.Par.E.locals)
            ~cfg ~wiring ~inputs ()
        with
        | Par.Par_ok { stats; _ } -> par := (stats.Par.states, stats.Par.transitions)
        | _ -> par := (-1, -1))
  in
  let module Ws = Core.Snapshot_ws_mc in
  let t_ws =
    median_time (fun () ->
        match
          Ws.explore ~reduction:true ~domains
            ~stop_expansion:(fun st -> stop st.Ws.E.locals)
            ~cfg ~wiring ~inputs ()
        with
        | Ws.Ws_ok { stats; _ } -> ws := (stats.Ws.states, stats.Ws.transitions)
        | _ -> ws := (-1, -1))
  in
  ( [
      { name = "modelcheck.par2_speedup"; value = t_seq /. t_par; unit = "ratio" };
      { name = "modelcheck.ws2_speedup"; value = t_seq /. t_ws; unit = "ratio" };
    ],
    (if !par = !seq then [] else [ "par engine lost parity with the sequential BFS" ])
    @ if !ws = !seq then [] else [ "ws engine lost parity with the sequential BFS" ] )

let probe ~seed ~size ~tmp =
  let parts =
    [
      Spans.with_span "modelcheck.codec_probe" (fun () -> codec_probe ~seed ~size ~tmp);
      Spans.with_span "modelcheck.ckpt_probe" (fun () -> ckpt_probe ~size ~tmp);
      Spans.with_span "analysis.map_probe" analysis_probe;
      Spans.with_span "fuzz.case_probe" (fun () -> fuzz_probe ~seed ~size);
      Spans.with_span "modelcheck.parallel_probe" (fun () -> parallel_probe ~seed ~size);
    ]
  in
  (List.concat_map fst parts, List.concat_map snd parts)
