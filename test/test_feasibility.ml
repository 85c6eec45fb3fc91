(* The feasibility map's pure half (Analysis.Feasibility): the
   coprimality predicate against a brute-force oracle, the expectation
   assignment, the verdict/expectation confirmation matrix, and — via the
   Core verifiers — regressions pinning the first non-coprime cells and
   the m=1 covering cells to concrete violations. *)

module F = Analysis.Feasibility

(* --- coprimality predicate ----------------------------------------------- *)

let rec gcd_ref a b = if b = 0 then a else gcd_ref b (a mod b)

let brute_force_ok ~n ~m =
  m >= 1
  && List.for_all
       (fun k -> gcd_ref m k = 1)
       (List.init (max 0 (n - 1)) (fun i -> i + 2))

let prop_coprime_matches_brute_force =
  QCheck.Test.make ~count:2000
    ~name:"coprime_ok = brute-force gcd check (n<=8, m<=64)"
    QCheck.(pair (int_range 1 8) (int_range 1 64))
    (fun (n, m) -> F.coprime_ok ~n ~m = brute_force_ok ~n ~m)

let test_coprime_known_values () =
  (* The documented threshold cells, spelled out. *)
  List.iter
    (fun (n, m, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "coprime_ok n=%d m=%d" n m)
        want (F.coprime_ok ~n ~m))
    [
      (2, 1, true) (* coprime — the m=1 infeasibility is the covering
                      floor, not the gcd condition *);
      (2, 2, false);
      (2, 3, true);
      (2, 4, false);
      (2, 5, true);
      (2, 6, false);
      (3, 2, false);
      (3, 3, false);
      (3, 4, false);
      (3, 5, true);
      (3, 6, false);
      (3, 7, true);
      (4, 35, true) (* 35 = 5*7 is coprime with each of 2..4 *);
      (5, 35, false) (* ...but not with 5 *);
    ]

(* --- expectations and the confirmation matrix ---------------------------- *)

let test_expected_assignment () =
  let e = F.expected ~floor:3 ~coprime:true in
  (match e ~n:2 ~m:2 with
  | F.Noncoprime -> ()
  | _ -> Alcotest.fail "m=2, n=2: non-coprimality outranks the floor");
  (match e ~n:2 ~m:1 with
  | F.Below_floor -> ()
  | _ -> Alcotest.fail "m=1 must be below the floor");
  (match e ~n:2 ~m:4 with
  | F.Noncoprime -> ()
  | _ -> Alcotest.fail "m=4, n=2 must be non-coprime");
  match e ~n:2 ~m:3 with
  | F.Clean -> ()
  | _ -> Alcotest.fail "m=3, n=2 must be clean"

let test_confirmation_matrix () =
  let solved = F.Solved { wirings = 1; states = 1 } in
  let broken = F.Safety_broken "x" in
  let dead = F.Deadlock "y" in
  let unknown =
    F.Unknown { reason = "quota"; states = 5; checkpoint = None }
  in
  List.iter
    (fun (exp_, st, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "confirms %s/%s"
           (Fmt.str "%a" F.pp_expectation exp_)
           (F.status_keyword st))
        want (F.confirms exp_ st))
    [
      (F.Clean, solved, true);
      (F.Clean, broken, false);
      (F.Clean, dead, false);
      (F.Clean, unknown, false);
      (F.Noncoprime, solved, false);
      (F.Noncoprime, broken, true);
      (F.Noncoprime, dead, true);
      (F.Below_floor, broken, true);
      (F.Below_floor, dead, true);
      (F.Below_floor, solved, false);
      (F.Noncoprime, unknown, false);
    ]

let test_json_shape () =
  let cells =
    [
      {
        F.task = "mutex";
        n = 2;
        m = 3;
        expectation = F.Clean;
        status = F.Solved { wirings = 6; states = 7354 };
      };
      {
        F.task = "mutex";
        n = 2;
        m = 2;
        expectation = F.Noncoprime;
        status = F.Deadlock "processors p1, p2 spin forever";
      };
    ]
  in
  let j = F.to_json cells in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON contains %S" needle)
        true
        (let len = String.length needle in
         let rec scan i =
           i + len <= String.length j
           && (String.sub j i len = needle || scan (i + 1))
         in
         scan 0))
    [
      "\"task\": \"mutex\"";
      "\"expected\": \"clean\"";
      "\"status\": \"solved\"";
      "\"status\": \"deadlock\"";
      "\"all_confirmed\": true";
    ];
  Alcotest.(check bool) "both cells confirm" true (F.all_confirmed cells)

(* --- regressions: the first non-coprime cells are real violations -------- *)

(* Pin the *kind* of infeasibility at each boundary cell, not just "some
   violation": (2,2) deadlocks, (3,2)/(3,3) break exclusion outright,
   and m=1 breaks exclusion for the mutex and uniqueness for the leader
   even though 1 is coprime with everything. *)

let test_first_noncoprime_cells_pinned () =
  (match Core.verify_mutex ~n:2 ~m:2 () with
  | Core.Liveness_violation _ -> ()
  | v ->
      Alcotest.failf "mutex(2,2): want deadlock, got %s"
        (match v with
        | Core.Verified _ -> "verified"
        | Core.Safety_violation _ -> "safety violation"
        | Core.Liveness_violation _ | Core.Exhausted _ -> assert false));
  (match Core.verify_mutex ~n:3 ~m:2 () with
  | Core.Safety_violation _ -> ()
  | _ -> Alcotest.fail "mutex(3,2): want an exclusion break");
  match Core.verify_mutex ~n:3 ~m:3 () with
  | Core.Safety_violation _ -> ()
  | _ -> Alcotest.fail "mutex(3,3): want an exclusion break"

let test_covering_floor_cells_pinned () =
  (match Core.verify_mutex ~n:2 ~m:1 () with
  | Core.Safety_violation _ -> ()
  | _ -> Alcotest.fail "mutex(2,1): want an exclusion break despite gcd=1");
  match Core.verify_leader ~n:2 ~m:1 () with
  | Core.Safety_violation _ -> ()
  | _ -> Alcotest.fail "leader(2,1): want a two-leader break despite gcd=1"

(* The quick (n=2) map end to end: every cell must confirm the
   prediction.  This is the same sweep `anonsim feasibility --quick`
   runs, so the smoke alias and the library agree by construction. *)
let test_quick_map_confirms () =
  let cells = Core.feasibility_map ~quick:true () in
  List.iter
    (fun (c : F.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d m=%d confirms" c.F.task c.F.n c.F.m)
        true
        (F.confirms c.F.expectation c.F.status))
    cells;
  Alcotest.(check bool) "nonempty map" true (List.length cells >= 12)

(* One budget stops every engine behind the map: a quota of 50 ticks
   leaves a clean cell [Unknown "quota"] with a partial count whichever
   engine sweeps it — the packed Tarjan loop (mutex), the generic BFS
   (naming) or the DFS (leader) — and the bounded consensus check reports
   the sweeps' shared exhausted text. *)
let test_quota_stops_every_engine () =
  List.iter
    (fun (task, n, m) ->
      match Core.feasibility_check ~quota:50 ~task ~n ~m () with
      | F.Unknown { reason; states; checkpoint = None } ->
          Alcotest.(check string) (Fmt.str "%s (%d,%d) reason" task n m)
            "quota" reason;
          Alcotest.(check bool)
            (Fmt.str "%s (%d,%d) partial count" task n m)
            true (states > 0)
      | st ->
          Alcotest.failf "%s (%d,%d): want unknown, got %s" task n m
            (F.status_keyword st))
    [ ("mutex", 2, 3); ("naming", 2, 3); ("leader", 2, 2) ];
  let governor = Modelcheck.Governor.create ~quota:50 () in
  match Core.verify_consensus_bounded ~n:2 ~max_ts:4 ~governor () with
  | Error e -> (
      match Scanf.sscanf_opt e "%_s@(quota) at %d states%!" Fun.id with
      | Some states ->
          Alcotest.(check string) "consensus: the sweeps' exhausted text"
            (Modelcheck.Explorer.exhausted_error Modelcheck.Governor.Quota
               states)
            e
      | None -> Alcotest.failf "consensus: unexpected error %S" e)
  | Ok _ -> Alcotest.fail "a quota must stop the consensus check"

let () =
  Alcotest.run "feasibility"
    [
      ( "coprimality",
        [
          QCheck_alcotest.to_alcotest prop_coprime_matches_brute_force;
          Alcotest.test_case "known threshold values" `Quick
            test_coprime_known_values;
        ] );
      ( "map-logic",
        [
          Alcotest.test_case "expectation assignment" `Quick
            test_expected_assignment;
          Alcotest.test_case "confirmation matrix" `Quick
            test_confirmation_matrix;
          Alcotest.test_case "JSON shape" `Quick test_json_shape;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "first non-coprime cells" `Quick
            test_first_noncoprime_cells_pinned;
          Alcotest.test_case "m=1 covering floor" `Quick
            test_covering_floor_cells_pinned;
          Alcotest.test_case "quick map confirms prediction" `Quick
            test_quick_map_confirms;
          Alcotest.test_case "a quota stops every engine" `Quick
            test_quota_stops_every_engine;
        ] );
    ]
