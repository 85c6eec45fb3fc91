(* Wiring_sweep.run under real parallelism: a pooled sweep must give the
   sequential sweep's result at every worker count.

   - every quick feasibility-map cell verifies to the same verdict —
     wirings, states, messages, witness paths and lassos — at 1 worker
     and at each pooled count: even counts without a governor (the
     benchmark's shape), odd ones under an idle governor (the CLI's,
     which always holds the shared SIGINT flag);
   - a planted failing check reports its wiring wherever it sits, the
     lower index winning when two fail even if the higher one fails
     first in time;
   - an exception in one worker re-raises after the barrier, and the
     pool stays usable;
   - an interrupt flag set from another domain mid-sweep stops every
     worker and trips the caller's governor;
   - a quota sweep stays on one worker and reproduces its pinned count;
   - in a fresh process, sweeps of one wiring, under a quota or under a
     checkpoint policy spawn no domain.

   Stress mode: with SWEEP_STRESS_SEED=s the pooled counts are one
   random count in 1..4 and the planted failures sit at random indices,
   both drawn from [s] (`make stress` loops over seeds).  No test starts
   more than 4 domains. *)

module Ws = Modelcheck.Wiring_sweep
module Gov = Modelcheck.Governor
module Pool = Repro_util.Domain_pool
module F = Analysis.Feasibility

let stress_seed = Option.map int_of_string (Sys.getenv_opt "SWEEP_STRESS_SEED")
let rng = Random.State.make [| Option.value stress_seed ~default:0 |]

(* The pooled worker counts compared against one worker. *)
let pooled_counts =
  match stress_seed with
  | None -> [ 2; 3 ]
  | Some _ -> [ 1 + Random.State.int rng 4 ]

(* Pool sizes read before any test runs: the process is still fresh.
   Mutex (2,1) has one wiring (a safety violation, below the floor);
   (2,5) has several and verifies. *)
let fresh_pool_sizes =
  let one_wiring = Core.verify_mutex ~domains:3 ~n:2 ~m:1 () in
  let after_one = Pool.size () in
  let quota = Gov.create ~quota:1_000 () in
  let quota_sweep =
    Core.verify_mutex ~domains:3 ~n:2 ~m:5 ~governor:quota ()
  in
  let after_quota = Pool.size () in
  let path = Filename.temp_file "wiring_sweep" ".ckpt" in
  Sys.remove path;
  let ckpt = { Modelcheck.Checkpoint.path; every_states = 0 } in
  let ckpt_sweep = Core.verify_mutex ~domains:3 ~n:2 ~m:5 ~ckpt () in
  Modelcheck.Checkpoint.retire path;
  ( [ ("one wiring", after_one); ("quota", after_quota);
      ("checkpoint", Pool.size ()) ],
    [ one_wiring; quota_sweep; ckpt_sweep ] )

let test_fresh_process_spawns_nothing () =
  let sizes, verdicts = fresh_pool_sizes in
  List.iter
    (fun (name, size) ->
      Alcotest.(check int) (name ^ ": Domain_pool.size ()") 0 size)
    sizes;
  match verdicts with
  | [ Core.Safety_violation _;
      Core.Exhausted { reason = Gov.Quota; _ };
      Core.Verified _ ] -> ()
  | _ ->
      Alcotest.failf "one-worker sweeps: %a"
        Fmt.(list ~sep:semi Core.pp_verdict)
        verdicts

(* --- quick-map parity ---------------------------------------------------- *)

let quick_cells =
  List.concat_map
    (fun g -> List.map (fun (n, m) -> (g.F.g_task, n, m)) g.F.g_cells)
    (F.grids ~quick:true ())

(* The cells compared: all of them, or in stress mode each with
   probability 1/2, so a stress run stays short and twenty runs still
   cover every cell several times. *)
let compared_cells =
  match stress_seed with
  | None -> quick_cells
  | Some _ -> List.filter (fun _ -> Random.State.bool rng) quick_cells

let verify ?governor ~domains (task, n, m) =
  match task with
  | "mutex" -> Core.verify_mutex ~domains ~wiring_classes:true ?governor ~n ~m ()
  | "naming" ->
      Core.verify_naming ~domains ~wiring_classes:true ?governor ~n ~m ()
  | "leader" ->
      Core.verify_leader ~domains ~wiring_classes:true ?governor ~n ~m ()
  | t -> Alcotest.failf "unknown task %s" t

let same_verdict name reference v =
  if v <> reference then
    Alcotest.failf "%s: %a, but one worker gives %a" name Core.pp_verdict v
      Core.pp_verdict reference

let test_quick_map_parity () =
  Alcotest.(check int) "quick-map cells" 14 (List.length quick_cells);
  let lassos = ref 0 in
  List.iter
    (fun ((task, n, m) as cell) ->
      let reference = verify ~domains:1 cell in
      (match reference with
      | Core.Liveness_violation { cycle; _ } when cycle <> [] -> incr lassos
      | _ -> ());
      List.iter
        (fun d ->
          let name = Printf.sprintf "%s (%d,%d) at %d workers" task n m d in
          if d mod 2 = 0 then same_verdict name reference (verify ~domains:d cell)
          else begin
            let g = Gov.create () in
            same_verdict (name ^ ", idle governor") reference
              (verify ~governor:g ~domains:d cell);
            Alcotest.(check bool) (name ^ ": governor untripped") true
              (Gov.tripped g = None)
          end)
        pooled_counts)
    compared_cells;
  if stress_seed = None then
    Alcotest.(check bool) "some cell compares a lasso" true (!lassos > 0)

(* A safety witness: the planted eager-entry bug, over whole wirings. *)
let test_safety_witness_parity () =
  let cfg = Algorithms.Rt_mutex.cfg_eager ~n:2 ~m:3 in
  let reference = Core.verify_mutex ~cfg ~domains:1 () in
  (match reference with
  | Core.Safety_violation { path; _ } ->
      Alcotest.(check bool) "witness path" true (path <> [])
  | v -> Alcotest.failf "eager mutex: %a" Core.pp_verdict v);
  List.iter
    (fun d ->
      same_verdict (Printf.sprintf "eager mutex at %d workers" d) reference
        (Core.verify_mutex ~cfg ~domains:d ()))
    pooled_counts

(* --- planted failures ---------------------------------------------------- *)

let n = 2
let m = 4
let wirings = Anonmem.Wiring.enumerate ~n ~m ~fix_first:true
let nw = List.length wirings
let index_of w =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = w then i else go (i + 1) rest
  in
  go 0 wirings

exception Planted of int

(* Wiring [i] passes with [i], fails at [planted], and raises at
   [raising].  A failing index sleeps longer the lower it is, so with
   several workers a later failure lands first. *)
let planted_check ?(raising = []) planted ~governor:_ ~resume:_ ~ckpt_extra:_
    w =
  let i = index_of w in
  if List.mem i planted || List.mem i raising then
    Unix.sleepf (0.002 *. float_of_int (nw - i));
  if List.mem i raising then raise (Planted i)
  else if List.mem i planted then Error i
  else Ok i

(* The sequential reference: indices in order up to the first failure. *)
let reference ?(raising = []) planted =
  let rec go acc i =
    if i >= nw then `Ok acc
    else if List.mem i raising then `Raised i
    else if List.mem i planted then `Error (acc, i)
    else go (i :: acc) (i + 1)
  in
  go [] 0

let sweep ?raising ~domains planted =
  match
    Ws.run ~domains ~wirings ~n ~m ~init:[] ~add:(fun acc i -> i :: acc)
      (planted_check ?raising planted)
  with
  | Ok acc -> `Ok acc
  | Error (acc, i) -> `Error (acc, i)
  | exception Planted i -> `Raised i

let placements =
  let fixed =
    [ []; [ 0 ]; [ nw / 2 ]; [ nw - 1 ]; [ nw / 2; nw - 1 ]; [ 0; nw / 2 ] ]
  in
  match stress_seed with
  | None -> fixed
  | Some _ ->
      fixed
      @ [ [ Random.State.int rng nw ];
          [ Random.State.int rng nw; Random.State.int rng nw ] ]

let show = function
  | `Ok acc -> Fmt.str "ok %a" Fmt.(Dump.list int) acc
  | `Error (acc, i) -> Fmt.str "error at %d after %a" i Fmt.(Dump.list int) acc
  | `Raised i -> Fmt.str "raised at %d" i

let test_planted_failure () =
  List.iter
    (fun planted ->
      List.iter
        (fun d ->
          let got = sweep ~domains:d planted in
          let want = reference planted in
          if got <> want then
            Alcotest.failf "planted %a at %d workers: %s, want %s"
              Fmt.(Dump.list int) planted d (show got) (show want))
        (1 :: pooled_counts))
    placements

let test_exception_after_barrier () =
  let cases =
    [ ([], [ nw / 2 ]); ([ nw - 1 ], [ nw / 2 ]); ([ 1 ], [ nw / 2 ]) ]
  in
  List.iter
    (fun (planted, raising) ->
      List.iter
        (fun d ->
          let got = sweep ~raising ~domains:d planted in
          let want = reference ~raising planted in
          if got <> want then
            Alcotest.failf "raising %a, planted %a at %d workers: %s, want %s"
              Fmt.(Dump.list int) raising Fmt.(Dump.list int) planted d
              (show got) (show want))
        (1 :: pooled_counts))
    cases;
  (* the pool survives a raising worker *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "pool usable after a raise" true
        (sweep ~domains:d [] = reference []))
    pooled_counts

(* --- governors ----------------------------------------------------------- *)

(* Every wiring ticks its worker's governor until it trips (or 10 s
   pass, which fails the test); a pool job in another domain sets the
   shared flag once the sweep has started. *)
let test_interrupt_from_another_domain () =
  List.iter
    (fun d ->
      let flag = Atomic.make false in
      let g = Gov.create ~interrupted_flag:flag () in
      let started = Atomic.make 0 in
      let result = ref None in
      let deadline = Unix.gettimeofday () +. 10. in
      let spin ~governor ~resume:_ ~ckpt_extra:_ _ =
        Atomic.incr started;
        let g = Option.get governor in
        let rec go () =
          match Gov.tick g with
          | Some r -> Error r
          | None -> if Unix.gettimeofday () > deadline then Ok () else go ()
        in
        go ()
      in
      (* Instance 0 runs the sweep in this domain, instance 1 the
         interrupter in a pool domain: at most [max d 2] domains. *)
      Pool.parallel ~domains:2 (function
        | 0 ->
            result :=
              Some
                (Ws.run ~domains:d ~governor:g ~wirings ~n ~m ~init:()
                   ~add:(fun () () -> ())
                   spin)
        | _ ->
            while Atomic.get started = 0 && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            Atomic.set flag true);
      (match !result with
      | Some (Error ((), Gov.Interrupted)) -> ()
      | _ -> Alcotest.failf "%d workers: the sweep did not stop interrupted" d);
      Alcotest.(check bool)
        (Printf.sprintf "%d workers: caller's governor tripped" d)
        true
        (Gov.tripped g = Some Gov.Interrupted))
    (1 :: pooled_counts)

(* A real verifier under a zero wall budget: every worker's view trips
   on its first tick, and the caller's governor reports it. *)
let test_wall_trip_reaches_caller () =
  List.iter
    (fun d ->
      let g = Gov.create ~wall_seconds:0.0 () in
      (match Core.verify_naming ~domains:d ~n:2 ~m:5 ~governor:g () with
      | Core.Exhausted { reason = Gov.Wall_clock; _ } -> ()
      | v -> Alcotest.failf "%d workers: %a" d Core.pp_verdict v);
      Alcotest.(check bool)
        (Printf.sprintf "%d workers: caller's governor tripped" d)
        true
        (Gov.tripped g = Some Gov.Wall_clock))
    (1 :: pooled_counts)

(* The benchmark's quota cell: mutex (3,5) over wiring classes stops on
   a 1,000,000-tick quota at exactly 250,030 states, at any [domains]. *)
let test_quota_pinned_count () =
  List.iter
    (fun d ->
      let g = Gov.create ~quota:1_000_000 () in
      (match
         Core.verify_mutex ~domains:d ~wiring_classes:true ~n:3 ~m:5
           ~governor:g ()
       with
      | Core.Exhausted { reason = Gov.Quota; states_visited; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "%d workers: states under the quota" d)
            250_030 states_visited
      | v -> Alcotest.failf "%d workers: %a" d Core.pp_verdict v))
    (1 :: pooled_counts)

let () =
  Alcotest.run "wiring_sweep"
    [
      ( "pool",
        [
          Alcotest.test_case "fresh process: one-worker sweeps spawn nothing"
            `Quick test_fresh_process_spawns_nothing;
        ] );
      ( "parity",
        [
          Alcotest.test_case "quick-map cells at every worker count" `Quick
            test_quick_map_parity;
          Alcotest.test_case "safety witness at every worker count" `Quick
            test_safety_witness_parity;
        ] );
      ( "planted",
        [
          Alcotest.test_case "first failure in order wins" `Quick
            test_planted_failure;
          Alcotest.test_case "exception re-raised after the barrier" `Quick
            test_exception_after_barrier;
        ] );
      ( "governor",
        [
          Alcotest.test_case "interrupt set from another domain" `Quick
            test_interrupt_from_another_domain;
          Alcotest.test_case "wall-clock trip reaches the caller" `Quick
            test_wall_trip_reaches_caller;
          Alcotest.test_case "quota sweep keeps its pinned count" `Quick
            test_quota_pinned_count;
        ] );
    ]
