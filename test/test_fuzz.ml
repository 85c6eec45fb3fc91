(* Tests of the schedule-fuzzing subsystem (lib/fuzz): seeded
   determinism of case generation and execution, the planted
   double-collect comparability bug (found, shrunk to a short script,
   and reproducible by replay), and the ddmin shrinker in isolation on
   synthetic predicates. *)

module Gen = Fuzzing.Gen
module Shrink = Fuzzing.Shrink
module Harness = Fuzzing.Harness
module H_snap = Harness.Make (Fuzzing.Targets.Snapshot)
module H_dc = Harness.Make (Fuzzing.Targets.Double_collect)

let m_eq_n ~n = (n, n)

(* --- Seeded determinism --------------------------------------------------- *)

let test_case_determinism () =
  for seed = 0 to 49 do
    let mk () =
      Gen.case ~seed ~n_range:(2, 5) ~m_range:m_eq_n ~max_steps:1_000 ()
    in
    Alcotest.(check bool) "same seed, same case" true (mk () = mk ())
  done

let test_run_determinism () =
  (* Same seed => the adversary replays identically: the executed pid
     sequence, final outputs and per-processor step counts all agree.
     50 seeds cover all four adversary shapes. *)
  for seed = 0 to 49 do
    let run () =
      H_snap.run_case
        (Gen.case ~seed ~n_range:(2, 5) ~m_range:m_eq_n ~max_steps:500 ())
    in
    let r1 = run () and r2 = run () in
    Alcotest.(check (list int))
      "same executed schedule"
      (H_snap.Tr.pids r1.H_snap.trace)
      (H_snap.Tr.pids r2.H_snap.trace);
    Alcotest.(check (array int))
      "same step counts" r1.H_snap.step_counts r2.H_snap.step_counts;
    Alcotest.(check bool) "same outputs" true (r1.H_snap.outputs = r2.H_snap.outputs)
  done

let test_campaign_determinism () =
  let run () = H_dc.campaign ~seed:0 ~iterations:100 () in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool)
    "same campaign, same counterexample" true
    (r1.Harness.counterexample = r2.Harness.counterexample);
  Alcotest.(check int) "same total steps" r1.Harness.total_steps
    r2.Harness.total_steps

(* The throughput shape: at n = m in 24..40 every snapshot case runs
   the whole 5,000-step budget mid-protocol, so execution dominates. *)
let big_seed = 2026
let big_n_range = (24, 40)
let big_max_steps = 5_000

(* Same seed => byte-identical deterministic report, whatever the domain
   count.  The sharding protocol guarantees the smallest failing
   iteration wins and every case seed derives from (campaign seed,
   iteration) alone, so the timing-free rendering — iterations, total
   steps, counterexample, shrunk instance — cannot depend on how many
   workers ran the campaign. *)
let test_parallel_campaign_clean () =
  let same_summary ?n_range ?max_steps ~seed ~iterations () =
    let summary domains =
      H_snap.deterministic_summary ~key:"snapshot"
        (H_snap.campaign ~domains ?n_range ?max_steps ~seed ~iterations ())
    in
    let s1 = summary 1 in
    Alcotest.(check string) "2 domains = 1 domain" s1 (summary 2);
    Alcotest.(check string) "4 domains = 1 domain" s1 (summary 4)
  in
  same_summary ~seed:7 ~iterations:200 ();
  (* Large instances that saturate the step budget: every case is long,
     so each of 4 domains claims several 64-case chunks. *)
  same_summary ~n_range:big_n_range ~max_steps:big_max_steps ~seed:big_seed
    ~iterations:2_000 ()

let test_parallel_campaign_planted_bug () =
  let report domains = H_dc.campaign ~domains ~seed:0 ~iterations:200 () in
  let r1 = report 1 and r2 = report 2 and r4 = report 4 in
  (match r1.Harness.counterexample with
  | None -> Alcotest.fail "planted bug not found by the 1-domain campaign"
  | Some _ -> ());
  let s1 = H_dc.deterministic_summary ~key:"double_collect" r1 in
  Alcotest.(check string) "2 domains = 1 domain"
    s1 (H_dc.deterministic_summary ~key:"double_collect" r2);
  Alcotest.(check string) "4 domains = 1 domain"
    s1 (H_dc.deterministic_summary ~key:"double_collect" r4);
  (* Structural equality of the whole counterexample record: same failing
     case, same shrunk instance, same failure, not merely the same
     rendering. *)
  Alcotest.(check bool) "identical counterexample (2 domains)" true
    (r1.Harness.counterexample = r2.Harness.counterexample);
  Alcotest.(check bool) "identical counterexample (4 domains)" true
    (r1.Harness.counterexample = r4.Harness.counterexample);
  Alcotest.(check int) "iterations = failing index + 1"
    (match r1.Harness.found_after with Some (k, _) -> k + 1 | None -> -1)
    r1.Harness.iterations

(* The zero-observer fast path executes the same transitions as the
   observed path: identical stop reason, step totals, per-processor step
   counts, outputs — and therefore identical verdicts.  Only the trace
   differs (empty on the fast path). *)
let test_fast_vs_traced_differential () =
  for seed = 0 to 39 do
    let case = Gen.case ~seed ~n_range:(2, 5) ~m_range:m_eq_n ~max_steps:500 () in
    let traced = H_snap.run_case ~record:true case in
    let fast = H_snap.run_case ~record:false case in
    Alcotest.(check int) "same steps" traced.H_snap.steps fast.H_snap.steps;
    Alcotest.(check (array int))
      "same step counts" traced.H_snap.step_counts fast.H_snap.step_counts;
    Alcotest.(check bool) "same stop reason" true
      (traced.H_snap.stop = fast.H_snap.stop);
    Alcotest.(check bool) "same outputs" true
      (traced.H_snap.outputs = fast.H_snap.outputs);
    Alcotest.(check (list int))
      "trace length = steps (traced) / empty (fast)"
      (List.init traced.H_snap.steps (fun _ -> 0) |> List.map (fun _ -> 0))
      (List.map (fun _ -> 0) (H_snap.Tr.pids traced.H_snap.trace));
    Alcotest.(check (list int)) "fast trace empty" []
      (H_snap.Tr.pids fast.H_snap.trace);
    let v r = H_snap.verdict ~n:case.Gen.n ~m:case.Gen.m ~inputs:case.Gen.inputs r in
    Alcotest.(check bool) "same verdict" true
      (Result.is_ok (v traced) = Result.is_ok (v fast))
  done

(* The untraced path runs the snapshot target on its flat int machine,
   which allocates a few words per step; the boxed interpreter allocates
   about 39, so a silent fallback fails here.  One measured iteration is
   a whole harness case: generation, execution and verdict. *)
let test_flat_path_allocation () =
  let run_one i =
    let case =
      Gen.case
        ~seed:((big_seed * 1_000_003) + i)
        ~n_range:big_n_range ~m_range:m_eq_n ~max_steps:big_max_steps ()
    in
    let run = H_snap.run_case ~record:false case in
    (match
       H_snap.verdict ~n:case.Gen.n ~m:case.Gen.m ~inputs:case.Gen.inputs run
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "snapshot: unexpected counterexample");
    run.H_snap.steps
  in
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let iterations = 1_500 in
  for i = 0 to 63 do
    ignore (run_one i : int)
  done;
  Gc.full_major ();
  let a0 = allocated () in
  let steps = ref 0 in
  for i = 0 to iterations - 1 do
    steps := !steps + run_one i
  done;
  let per_step = (allocated () -. a0) /. float_of_int !steps in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words/step < 8" per_step)
    true (per_step < 8.0)

(* --- The planted bug ------------------------------------------------------ *)

let test_double_collect_bug_found_and_shrunk () =
  let report = H_dc.campaign ~seed:0 ~iterations:200 () in
  match report.Harness.counterexample with
  | None -> Alcotest.fail "double-collect comparability bug not found"
  | Some cex ->
      let inst = cex.Harness.instance in
      let len = List.length inst.Harness.script in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk script has <= 15 steps (got %d)" len)
        true (len <= 15);
      Alcotest.(check bool)
        "violated property is containment" true
        (cex.Harness.failure.Tasks.Task_failure.property
        = Tasks.Task_failure.Containment);
      (* The shrunk instance is standalone: replaying its script from
         scratch reproduces the failure. *)
      (match H_dc.verdict_of_instance inst with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "shrunk instance does not reproduce the failure");
      (* 1-minimality: dropping any single step of the script loses the
         violation. *)
      List.iteri
        (fun i _ ->
          let script' =
            List.filteri (fun j _ -> j <> i) inst.Harness.script
          in
          match
            H_dc.verdict_of_instance { inst with Harness.script = script' }
          with
          | Ok () -> ()
          | Error _ ->
              Alcotest.fail
                (Printf.sprintf "script not 1-minimal: step %d removable" i))
        inst.Harness.script

let test_replay_command_shape () =
  let report = H_dc.campaign ~seed:0 ~iterations:200 () in
  match report.Harness.counterexample with
  | None -> Alcotest.fail "no counterexample"
  | Some cex ->
      let cmd = Harness.replay_command ~key:"double_collect" cex.Harness.instance in
      let has_sub sub =
        let n = String.length sub and m = String.length cmd in
        let rec at i = i + n <= m && (String.sub cmd i n = sub || at (i + 1)) in
        at 0
      in
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "command mentions %S" sub)
            true (has_sub sub))
        [ "replay"; "--protocol double_collect"; "--inputs"; "--wiring"; "--script" ]

(* The sound targets stay clean: no false positives from the oracles or
   the wait-freedom budget over a short bounded campaign. *)
let clean_campaign (module T : Fuzzing.Target.S) key () =
  let module H = Harness.Make (T) in
  let report = H.campaign ~seed:1 ~iterations:150 () in
  match report.Harness.counterexample with
  | None -> ()
  | Some cex ->
      Alcotest.fail
        (Fmt.str "false positive on %s: %a" key Tasks.Task_failure.pp
           cex.Harness.failure)

(* --- The shrinker on synthetic predicates --------------------------------- *)

let test_ddmin_pair () =
  let still_failing l = List.mem 3 l && List.mem 7 l in
  Alcotest.(check (list int))
    "minimal pair survives" [ 3; 7 ]
    (Shrink.list ~still_failing (List.init 20 Fun.id))

let test_ddmin_singleton () =
  let still_failing l = List.mem 11 l in
  Alcotest.(check (list int))
    "single culprit" [ 11 ]
    (Shrink.list ~still_failing (List.init 30 Fun.id))

let test_ddmin_keeps_order () =
  (* Predicate needs a 5 somewhere before a 9: shrinking must preserve
     relative order of the kept elements. *)
  let rec ordered = function
    | [] -> false
    | 5 :: rest -> List.mem 9 rest
    | _ :: rest -> ordered rest
  in
  Alcotest.(check (list int))
    "ordered witness" [ 5; 9 ]
    (Shrink.list ~still_failing:ordered [ 1; 9; 5; 2; 9; 4 ])

let test_ddmin_everything_needed () =
  let input = [ 4; 2; 6 ] in
  let still_failing l = l = input in
  Alcotest.(check (list int))
    "irreducible input unchanged" input
    (Shrink.list ~still_failing input)

let test_first_accepted () =
  let still_failing x = x >= 2 in
  Alcotest.(check int) "first failing candidate" 2
    (Shrink.first_accepted ~still_failing [ 1; 2; 3 ] 99);
  Alcotest.(check int) "fallback when none fail" 99
    (Shrink.first_accepted ~still_failing [ 0; 1 ] 99)

let prop_ddmin_sound_and_1minimal =
  QCheck.Test.make ~name:"ddmin result still fails and is 1-minimal"
    ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_bound 9))
    (fun input ->
      (* A monotone-ish predicate: at least three even elements. *)
      let still_failing l =
        List.length (List.filter (fun x -> x mod 2 = 0) l) >= 3
      in
      QCheck.assume (still_failing input);
      let r = Shrink.list ~still_failing input in
      still_failing r
      && List.for_all
           (fun i -> not (still_failing (List.filteri (fun j _ -> j <> i) r)))
           (List.init (List.length r) Fun.id))

let prop_ddmin_is_subsequence =
  QCheck.Test.make ~name:"ddmin result is a subsequence of the input"
    ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_bound 9))
    (fun input ->
      let still_failing l = List.exists (fun x -> x >= 5) l in
      QCheck.assume (still_failing input);
      let r = Shrink.list ~still_failing input in
      let rec subseq xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' ->
            if x = y then subseq xs' ys' else subseq xs ys'
      in
      subseq r input)

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "case generation" `Quick test_case_determinism;
          Alcotest.test_case "execution" `Quick test_run_determinism;
          Alcotest.test_case "campaign" `Quick test_campaign_determinism;
          Alcotest.test_case "parallel campaign, clean target" `Quick
            test_parallel_campaign_clean;
          Alcotest.test_case "parallel campaign, planted bug" `Quick
            test_parallel_campaign_planted_bug;
          Alcotest.test_case "fast path vs traced" `Quick
            test_fast_vs_traced_differential;
          Alcotest.test_case "flat path allocation" `Quick
            test_flat_path_allocation;
        ] );
      ( "planted-bug",
        [
          Alcotest.test_case "double collect found and shrunk" `Quick
            test_double_collect_bug_found_and_shrunk;
          Alcotest.test_case "replay command" `Quick test_replay_command_shape;
          Alcotest.test_case "snapshot stays clean" `Quick
            (clean_campaign (module Fuzzing.Targets.Snapshot) "snapshot");
          Alcotest.test_case "renaming stays clean" `Quick
            (clean_campaign (module Fuzzing.Targets.Renaming) "renaming");
          Alcotest.test_case "consensus stays clean" `Quick
            (clean_campaign (module Fuzzing.Targets.Consensus) "consensus");
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "pair" `Quick test_ddmin_pair;
          Alcotest.test_case "singleton" `Quick test_ddmin_singleton;
          Alcotest.test_case "order preserved" `Quick test_ddmin_keeps_order;
          Alcotest.test_case "irreducible" `Quick test_ddmin_everything_needed;
          Alcotest.test_case "first_accepted" `Quick test_first_accepted;
          QCheck_alcotest.to_alcotest prop_ddmin_sound_and_1minimal;
          QCheck_alcotest.to_alcotest prop_ddmin_is_subsequence;
        ] );
    ]
