(* The benchmark: see README.md in this directory.

     benchmark.exe --workload W --seed S --seconds T --trace 0|1
     benchmark.exe run [--seed S] [--repeats K] [--trace]
     benchmark.exe --smoke

   The first form measures one workload for about T seconds and ends
   with one JSON line: end-to-end metrics (untraced) or per-layer
   metrics (--trace 1).  [run] measures every workload K times.
   [--smoke] runs every workload at toy size and checks the outputs and
   the metric schema against BENCHMARK.json.  Raw per-unit records are
   appended to _build/benchmark/results.jsonl, spans to
   _build/benchmark/trace/. *)

let host_domains = Domain.recommended_domain_count ()

type stop = Repeats of int | Seconds of float

(* Start units until the stop rule says otherwise: a count, or a time
   budget that a new unit may overrun by at most half a typical unit.
   [min_units] holds in either case, unless the run's deadline is near. *)
let repeat stop ~min_units f =
  let t0 = Unix.gettimeofday () in
  let rec go acc durations i =
    let elapsed = Unix.gettimeofday () -. t0 in
    let typical = match durations with [] -> 0. | d -> Quantiles.median d in
    let more =
      match stop with
      | Repeats k -> i < k
      | Seconds s -> i < min_units || elapsed +. (typical /. 2.) < s
    in
    if more && Unix.gettimeofday () +. typical < !Runner.deadline then begin
      let s = Unix.gettimeofday () in
      let r = f i in
      go (r :: acc) ((Unix.gettimeofday () -. s) :: durations) (i + 1)
    end
    else List.rev acc
  in
  go [] [] 0

(* ---- results ---------------------------------------------------------------- *)

type result = {
  records : Runner.record list;  (** every child of the run *)
  metrics : Runner.metric list;
  shown : Runner.metric list;
      (** printed after [metrics] but not in the result line: the times in
          seconds, or a traced run's self time per layer *)
}

let correct r = List.for_all Runner.ok r.records
let failed r = List.length (List.filter (fun x -> not (Runner.ok x)) r.records)

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int (List.length r.records)));
      ("failed", Json.Num (float_of_int (failed r)));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Runner.metric) ->
               ( m.name,
                 Json.Obj [ ("value", Json.Num (Runner.median m)); ("unit", Json.Str m.unit) ] ))
             (List.filter (fun (m : Runner.metric) -> m.values <> []) r.metrics)) );
    ]

let print_table ~title r =
  Printf.printf "== %s (%d children, host_domains %d)\n" title (List.length r.records) host_domains;
  Printf.printf "  %-36s %-6s %14s %14s %14s %3s\n" "metric" "unit" "median" "q1" "q3" "n";
  List.iter
    (fun (m : Runner.metric) ->
      let q1, _, q3 = Quantiles.quartiles m.values in
      Printf.printf "  %-36s %-6s %14.6g %14.6g %14.6g %3d\n" m.name m.unit (Runner.median m) q1 q3
        (List.length m.values))
    (List.filter (fun (m : Runner.metric) -> m.values <> []) (r.metrics @ r.shown));
  (match List.find_opt (fun x -> x.Runner.fields <> Json.Null) r.records with
  | Some x when Runner.counts x <> Json.Obj [] && Runner.counts x <> Json.Null ->
      Printf.printf "  counts %s\n" (Json.to_string (Runner.counts x))
  | _ -> ());
  List.iter
    (fun x -> List.iter (fun e -> Printf.printf "  FAILED CHECK: %s\n" e) x.Runner.errors)
    r.records;
  flush stdout

let append_results ~workload ~seed ~traced r =
  Runner.mkdir_p Runner.out_dir;
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat Runner.out_dir "results.jsonl")
  in
  let unit_json (x : Runner.record) =
    Json.Obj
      [
        ("setup_s", if Float.is_finite x.setup_s then Json.Num x.setup_s else Json.Null);
        ("ref_s", if Float.is_finite x.ref_s then Json.Num x.ref_s else Json.Null);
        ("errors", Json.Arr (List.map (fun e -> Json.Str e) x.errors));
        ("record", x.fields);
      ]
  in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str workload);
            ("seed", Json.Num (float_of_int seed));
            ("trace", Json.Bool traced);
            ("host_domains", Json.Num (float_of_int host_domains));
            ("units", Json.Arr (List.map unit_json r.records));
            ("result", result_json r);
          ]));
  output_char oc '\n';
  close_out oc

(* ---- the two kinds of run ---------------------------------------------------- *)

let measure ~workload ~seed ~size stop =
  let records =
    repeat stop ~min_units:3 (fun index ->
        Runner.run_unit ~workload ~seed ~traced:false ~size ~index)
    |> Runner.check_repeatable
  in
  { records; metrics = Runner.end_to_end records; shown = Runner.seconds records }

let gc_unit = function
  | "gc.alloc_mwords" -> "Mwords"
  | "gc.top_heap_mib" -> "MiB"
  | _ -> "count"

let probe_metrics (probe : Runner.record) =
  match Json.member "metrics" probe.fields with
  | Json.Obj l ->
      List.map
        (fun (name, v) ->
          {
            Runner.name;
            unit = Json.to_str (Json.member "unit" v);
            values = [ Json.to_float (Json.member "value" v) ];
          })
        l
  | _ -> []

(* Per-layer metrics: the traced children's call counters, GC counters
   of their untraced twins, the tracing overhead (traced / untraced
   wall), and the layer probes. *)
let traced_result ~untraced ~traced ~probe =
  let wall rs = Quantiles.median (List.map Runner.wall_ref rs) in
  let overhead =
    match (List.filter Runner.ok untraced, List.filter Runner.ok traced) with
    | [], _ | _, [] -> []
    | u, t -> [ { Runner.name = "trace.overhead"; unit = "ratio"; values = [ wall t /. wall u ] } ]
  in
  let records = Runner.check_repeatable (untraced @ traced) @ probe in
  {
    records;
    metrics =
      Runner.per_key "layer_counts" ~unit:(fun _ -> "count") traced
      @ Runner.per_key "gc" ~unit:gc_unit untraced
      @ overhead
      @ List.concat_map probe_metrics probe;
    shown = Runner.per_key "self_s" ~unit:(fun _ -> "s") traced;
  }

let measure_traced ~workload ~seed ~size stop =
  let pairs =
    repeat stop ~min_units:1 (fun index ->
        let u = Runner.run_unit ~workload ~seed ~traced:false ~size ~index in
        (u, Runner.run_unit ~workload ~seed ~traced:true ~size ~index))
  in
  traced_result ~untraced:(List.map fst pairs) ~traced:(List.map snd pairs)
    ~probe:[ Runner.run_probe ~seed ~size ]

let run_one ~workload ~seed ~traced stop =
  let r =
    if traced then measure_traced ~workload ~seed ~size:Workloads.Full stop
    else measure ~workload ~seed ~size:Workloads.Full stop
  in
  print_table r
    ~title:(Printf.sprintf "%s seed %d%s" workload seed (if traced then " traced" else ""));
  append_results ~workload ~seed ~traced r;
  r

(* ---- smoke ------------------------------------------------------------------- *)

(* Every workload at toy size: one untraced and one traced child each,
   one probe child; every correctness check, the result-line schema and
   the metric names and units of BENCHMARK.json. *)
let smoke () =
  let spec = Json.read_file "BENCHMARK.json" in
  let listed key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key spec))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let listed_workloads =
    List.map
      (fun w -> Json.to_str (Json.member "name" w))
      (Json.to_list (Json.member "workloads" spec))
  in
  if listed_workloads <> Workloads.names then
    problem "BENCHMARK.json workloads differ from the benchmark's";
  (* The result line must parse back with exactly its four keys,
     and name every metric BENCHMARK.json lists with its unit. *)
  let check_line ~what r expected =
    let line = Json.to_string (result_json r) in
    let v = Json.of_string line in
    if List.map fst (Json.to_obj v) <> [ "correct"; "attempted"; "failed"; "metrics" ] then
      problem "%s: result keys" what;
    if not (Json.to_bool (Json.member "correct" v)) then problem "%s: not correct" what;
    if Json.to_int (Json.member "attempted" v) < 1 then problem "%s: nothing attempted" what;
    let metrics = Json.member "metrics" v in
    List.iter
      (fun (name, unit) ->
        match Json.member name metrics with
        | Json.Null -> problem "%s: metric %s missing" what name
        | m ->
            if Json.to_str (Json.member "unit" m) <> unit then problem "%s: %s unit" what name;
            if not (Float.is_finite (Json.to_float (Json.member "value" m))) then
              problem "%s: %s not finite" what name)
      expected
  in
  let size = Workloads.Smoke and seed = 0 in
  let probe = [ Runner.run_probe ~seed ~size ] in
  List.iter
    (fun workload ->
      let u = Runner.run_unit ~workload ~seed ~traced:false ~size ~index:0 in
      let t = Runner.run_unit ~workload ~seed ~traced:true ~size ~index:1 in
      let plain =
        { records = [ u ]; metrics = Runner.end_to_end [ u ]; shown = Runner.seconds [ u ] }
      in
      let layered = traced_result ~untraced:[ u ] ~traced:[ t ] ~probe in
      print_table ~title:(workload ^ " smoke") plain;
      print_table ~title:(workload ^ " smoke traced") layered;
      List.iter
        (fun (m : Runner.metric) ->
          if not (Runner.median m > 0.) then problem "%s: %s is not positive" workload m.name)
        plain.metrics;
      check_line ~what:workload plain (listed "end_to_end");
      check_line ~what:(workload ^ " traced") layered (listed "per_layer"))
    Workloads.names;
  match !problems with
  | [] ->
      print_endline "smoke: ok";
      exit 0
  | ps ->
      List.iter (fun p -> Printf.printf "smoke: %s\n" p) (List.rev ps);
      exit 1

(* ---- command line ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: benchmark.exe --workload W --seed S --seconds T --trace 0|1\n\
    \       benchmark.exe run [--seed S] [--repeats K] [--trace]\n\
    \       benchmark.exe --smoke";
  exit 2

let int_arg s = match int_of_string_opt s with Some i -> i | None -> usage ()

let () =
  Runner.deadline := Unix.gettimeofday () +. 165.;
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: args -> Runner.child args
  | "probe" :: args -> Runner.probe args
  | [ "reference" ] -> Runner.reference ()
  | [ ("--smoke" | "smoke") ] -> smoke ()
  | "run" :: args ->
      Runner.deadline := infinity;
      let rec parse (seed, repeats, traced) = function
        | "--seed" :: s :: rest -> parse (int_arg s, repeats, traced) rest
        | "--repeats" :: k :: rest -> parse (seed, int_arg k, traced) rest
        | "--trace" :: rest -> parse (seed, repeats, true) rest
        | [] -> (seed, repeats, traced)
        | _ -> usage ()
      in
      let seed, repeats, traced = parse (0, 3, false) args in
      let results =
        List.map
          (fun workload -> (workload, run_one ~workload ~seed ~traced (Repeats repeats)))
          Workloads.names
      in
      print_endline
        (Json.to_string (Json.Obj (List.map (fun (w, r) -> (w, result_json r)) results)));
      if not (List.for_all (fun (_, r) -> correct r) results) then exit 1
  | args ->
      let rec parse acc = function
        | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let workload = get "workload" in
      if not (List.mem workload Workloads.names) then begin
        prerr_endline ("unknown workload " ^ workload);
        exit 2
      end;
      let traced =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let seconds = match float_of_string_opt (get "seconds") with Some s -> s | None -> usage () in
      let r = run_one ~workload ~seed:(int_arg (get "seed")) ~traced (Seconds seconds) in
      if List.for_all (fun x -> x.Runner.fields = Json.Null) r.records then exit 1;
      print_endline (Json.to_string (result_json r))
