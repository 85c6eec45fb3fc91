(* compare.exe PARENT.jsonl CHANGE.jsonl [BENCHMARK.json]

   The A/B rule for a performance change.  Each input is a
   _build/benchmark/results.jsonl written by benchmark.exe: one line per
   run.  Run i of the parent and run i of the change form pair i (run
   the two sides alternately, same seed per pair); at least 10 pairs
   are required.  For every end-to-end metric of BENCHMARK.json and
   every workload, it reports each side's median and quartiles, the
   change's win share, and one verdict:

   - improved: the change wins at least 9/10 of the pairs (ties count
     for neither) and the medians differ, in its favour, by more than
     the parent's interquartile distance;
   - regressed: the change's median is worse than the parent's by more
     than the metric's bound;
   - unresolved: fewer than 10 pairs, or the parent's own spread is
     wider than the bound and not every change run beats every parent
     run;
   - unchanged: otherwise.

   A change that fails more runs than its parent is regressed whatever
   its timings.  Traced runs (per-layer metrics) are listed with medians
   and win share only: they carry no bound.  Exit code: 1 if anything
   regressed, 2 on unreadable input, 0 otherwise. *)

type side = { values : (string * float) list list; failed : int; attempted : int }

let load path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | "" -> lines acc
    | l -> lines (Json.of_string l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  lines []

(* Runs of one (workload, traced) series, in file order. *)
let series runs ~workload ~traced =
  let mine =
    List.filter
      (fun r ->
        Json.to_str (Json.member "workload" r) = workload
        && Json.to_bool (Json.member "trace" r) = traced)
      runs
  in
  let result r = Json.member "result" r in
  {
    values =
      List.map
        (fun r ->
          List.map
            (fun (k, v) -> (k, Json.to_float (Json.member "value" v)))
            (Json.to_obj (Json.member "metrics" (result r))))
        mine;
    failed = List.fold_left (fun a r -> a + Json.to_int (Json.member "failed" (result r))) 0 mine;
    attempted =
      List.fold_left (fun a r -> a + Json.to_int (Json.member "attempted" (result r))) 0 mine;
  }

let take n l = List.filteri (fun i _ -> i < n) l

let verdict ~better ~bound p c =
  let pairs = List.length p in
  let lower = better = "lower" in
  let beats x y = if lower then x < y else x > y in
  let wins = List.length (List.filter Fun.id (List.map2 beats c p)) in
  let pm = Quantiles.median p and cm = Quantiles.median c in
  let pq1, _, pq3 = Quantiles.quartiles p in
  let worse = (if lower then cm -. pm else pm -. cm) /. Float.abs pm in
  let every_run_better = List.for_all (fun x -> List.for_all (fun y -> beats x y) p) c in
  let share = float_of_int wins /. float_of_int (max 1 pairs) in
  let v =
    if pairs < 10 then "unresolved"
    else if share >= 0.9 && beats cm pm && Float.abs (cm -. pm) > pq3 -. pq1 then "improved"
    else if worse > bound then "regressed"
    else if (pq3 -. pq1) /. Float.abs pm > bound && not every_run_better then "unresolved"
    else "unchanged"
  in
  (v, share, -.worse)

let workloads_of runs =
  List.sort_uniq compare (List.map (fun r -> Json.to_str (Json.member "workload" r)) runs)

let () =
  let parent_path, change_path, spec_path =
    match List.tl (Array.to_list Sys.argv) with
    | [ p; c ] -> (p, c, "BENCHMARK.json")
    | [ p; c; s ] -> (p, c, s)
    | _ ->
        prerr_endline "usage: compare.exe PARENT.jsonl CHANGE.jsonl [BENCHMARK.json]";
        exit 2
  in
  let parent, change, spec =
    try (load parent_path, load change_path, Json.read_file spec_path)
    with Sys_error e | Json.Parse_error e ->
      prerr_endline ("compare: " ^ e);
      exit 2
  in
  let bounds =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          (Json.to_str (Json.member "better" m), Json.to_float (Json.member "bound" m)) ))
      (Json.to_list (Json.member "end_to_end" spec))
  in
  let per_layer =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "better" m)))
      (Json.to_list (Json.member "per_layer" spec))
  in
  let regressed = ref false in
  let row workload name p c ~better ~bound =
    let pairs = min (List.length p) (List.length c) in
    let p = take pairs p and c = take pairs c in
    if pairs > 0 then begin
      let pq1, pm, pq3 = Quantiles.quartiles p and cq1, cm, cq3 = Quantiles.quartiles c in
      let v, share, gain = verdict ~better ~bound:(Option.value ~default:infinity bound) p c in
      let v = if bound = None then "-" else v in
      if v = "regressed" then regressed := true;
      Printf.printf
        "%-15s %-34s %12.6g [%.6g, %.6g]  %12.6g [%.6g, %.6g]  %3d pairs  wins %4.0f%%  gain \
         %+6.1f%%  %s\n"
        workload name pm pq1 pq3 cm cq1 cq3 pairs (100. *. share) ((100. *. gain) +. 0.) v
    end
  in
  Printf.printf "%-15s %-34s %s\n" "workload" "metric"
    "parent median [q1, q3]  change median [q1, q3]  pairs  wins  gain  verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun traced ->
          let p = series parent ~workload ~traced and c = series change ~workload ~traced in
          if p.values <> [] && c.values <> [] then begin
            let column name s = List.filter_map (List.assoc_opt name) s.values in
            if traced then
              List.iter
                (fun (name, better) ->
                  row workload name (column name p) (column name c) ~better ~bound:None)
                per_layer
            else begin
              List.iter
                (fun (name, (better, bound)) ->
                  row workload name (column name p) (column name c) ~better ~bound:(Some bound))
                bounds;
              let rate s = float_of_int s.failed /. float_of_int (max 1 s.attempted) in
              Printf.printf "%-15s %-34s %12d/%d failed  %12d/%d failed  %s\n" workload
                "failed_share" p.failed p.attempted c.failed c.attempted
                (if rate c > rate p then "regressed" else "unchanged");
              if rate c > rate p then regressed := true
            end
          end)
        [ false; true ])
    (List.sort_uniq compare (workloads_of parent @ workloads_of change));
  if !regressed then exit 1
