(* Portfolio verification benchmark: wall-clock and visited states for
   each cell class of the feasibility map — a clean cell (all wirings
   swept, liveness pass included), a deadlocked cell (fair-SCC hit) and
   a safety-violating cell (early exit), for each of the three
   portfolio protocols — full wiring sweep vs symmetry-reduced vs the
   processor-relabelling wiring-class quotient.  Results go to
   BENCH_portfolio.json and a table on stdout; the EXPERIMENTS.md X9
   notes quote this output.

   The interesting column is the clean-cell wiring-class factor: clean
   cells dominate the map's cost (they must sweep every wiring), and
   with all-distinct identities the state-level symmetry group is
   trivial (reduction is a measured no-op) — the up-to-n! wiring-class
   cut is what makes the full n=3 map tractable. *)


type row = {
  task : string;
  n : int;
  m : int;
  mode : string;
  verdict : string;
  states : int;
  wall_s : float;
}

let rows : row list ref = ref []

(* Best-of-3 wall clock: the cheap cells finish in milliseconds, where a
   single sample is mostly scheduler noise. *)
let time f =
  let once () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let r, w1 = once () in
  let _, w2 = once () in
  let _, w3 = once () in
  (r, List.fold_left min w1 [ w2; w3 ])

let states_of = function
  | Core.Verified { states; _ } -> states
  | _ -> 0

let verdict_name = function
  | Core.Verified _ -> "verified"
  | Core.Safety_violation _ -> "safety-violation"
  | Core.Liveness_violation _ -> "deadlock"
  | Core.Resource_limit _ -> "limit"
  | Core.Exhausted _ -> "exhausted"

let cell task ~n ~m ~mode verify =
  let reduction = mode = "reduced" in
  let wiring_classes = mode = "classes" || mode = "packed" in
  let v, wall_s = time (fun () -> verify ~reduction ~wiring_classes) in
  let row =
    { task; n; m; mode; verdict = verdict_name v; states = states_of v; wall_s }
  in
  rows := row :: !rows;
  Fmt.pr "%-7s n=%d m=%d %-11s %-16s %8d states %8.3fs@." task n m mode
    row.verdict row.states wall_s

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  List.iter
    (fun mode ->
      (* "packed" = wiring classes + the single-word mutex engine; it is
         mutex-specific, so the other protocols' cells only run in the
         generic modes. *)
      let packed = mode = "packed" in
      let mutex ~n ~m ~reduction ~wiring_classes =
        Core.verify_mutex ~n ~m ~reduction ~wiring_classes ~packed ()
      in
      (* Clean cells: the expensive class (every wiring swept). *)
      cell "mutex" ~n:2 ~m:3 ~mode (mutex ~n:2 ~m:3);
      if not packed then begin
        cell "naming" ~n:2 ~m:3 ~mode (fun ~reduction ~wiring_classes ->
            Core.verify_naming ~n:2 ~m:3 ~reduction ~wiring_classes ());
        cell "leader" ~n:2 ~m:2 ~mode (fun ~reduction ~wiring_classes ->
            Core.verify_leader ~n:2 ~m:2 ~reduction ~wiring_classes ())
      end;
      if not quick then begin
        cell "mutex" ~n:2 ~m:5 ~mode (mutex ~n:2 ~m:5);
        if not packed then
          cell "naming" ~n:2 ~m:5 ~mode (fun ~reduction ~wiring_classes ->
              Core.verify_naming ~n:2 ~m:5 ~reduction ~wiring_classes ())
      end;
      (* Violating cells: early exit, cheap by construction. *)
      cell "mutex" ~n:2 ~m:2 ~mode (mutex ~n:2 ~m:2);
      cell "mutex" ~n:3 ~m:2 ~mode (mutex ~n:3 ~m:2);
      if not packed then
        cell "leader" ~n:2 ~m:1 ~mode (fun ~reduction ~wiring_classes ->
            Core.verify_leader ~n:2 ~m:1 ~reduction ~wiring_classes ()))
    [ "full"; "reduced"; "classes"; "packed" ];
  (* JSON dump, newline-separated objects like the other benchmarks. *)
  let oc = open_out "BENCH_portfolio.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"host_domains\": %d,\n"
    (Domain.recommended_domain_count ());
  output_string oc "  \"portfolio\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "    {\"task\": \"%s\", \"n\": %d, \"m\": %d, \"mode\": \"%s\", \
         \"verdict\": \"%s\", \"states\": %d, \"wall_s\": %.6f}"
        r.task r.n r.m r.mode r.verdict r.states r.wall_s)
    (List.rev !rows);
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Fmt.pr "wrote BENCH_portfolio.json@."
