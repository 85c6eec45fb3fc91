(* One measured unit = one fresh child process.  The benchmark binary
   re-invokes itself with a workload selector; the child builds its
   inputs, reports "ready" on its stdout pipe, does the timed work,
   checks its outputs and writes one JSON record.  Peak RSS and GC
   counters are therefore per unit, never process-monotone.  The parent
   times set-up as spawn -> "ready". *)

let out_dir = Filename.concat "_build" "benchmark"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Peak resident set of the calling process, from VmHWM. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

let num_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l)
let int_obj l = num_obj (List.map (fun (k, v) -> (k, float_of_int v)) l)

(* ---- child side ------------------------------------------------------------ *)

let size_of_string = function
  | "full" -> Workloads.Full
  | "smoke" -> Workloads.Smoke
  | s -> invalid_arg ("unknown size " ^ s)

let string_of_size = function Workloads.Full -> "full" | Workloads.Smoke -> "smoke"

let ready () =
  print_string "ready\n";
  flush stdout

let emit fields =
  print_string (Json.to_string (Json.Obj fields));
  print_newline ()

let errors_json l = Json.Arr (List.map (fun e -> Json.Str e) l)

(* [child workload seed traced size tmp trace_file] *)
let child = function
  | [ workload; seed; traced; size; tmp; trace_file ] ->
      let traced = traced = "1" and size = size_of_string size in
      let run = Workloads.prepare workload ~seed:(int_of_string seed) ~size ~tmp in
      ready ();
      Spans.enabled := traced;
      let gc0 = Gc.quick_stat () and cpu0 = Unix.times () in
      let t0 = Unix.gettimeofday () in
      let outcome =
        match Spans.with_span ("bench." ^ workload) (fun () -> run ~traced) with
        | o -> o
        | exception e ->
            {
              Workloads.work = 0;
              counts = [];
              layer_counts = [];
              errors = [ "raised " ^ Printexc.to_string e ];
            }
      in
      let wall_s = Unix.gettimeofday () -. t0 in
      let cpu1 = Unix.times () and gc1 = Gc.quick_stat () in
      if traced then Spans.write_jsonl trace_file;
      let cpu (t : Unix.process_times) = t.tms_utime +. t.tms_stime in
      let alloc (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
      emit
        [
          ("errors", errors_json outcome.errors);
          ("wall_s", Json.Num wall_s);
          ("cpu_s", Json.Num (cpu cpu1 -. cpu cpu0));
          ("peak_rss_mib", Json.Num (peak_rss_mib ()));
          ("work", Json.Num (float_of_int outcome.work));
          ("counts", int_obj outcome.counts);
          ("layer_counts", int_obj outcome.layer_counts);
          ( "gc",
            num_obj
              [
                ( "gc.minor_collections",
                  float_of_int (gc1.minor_collections - gc0.minor_collections) );
                ( "gc.major_collections",
                  float_of_int (gc1.major_collections - gc0.major_collections) );
                ("gc.alloc_mwords", (alloc gc1 -. alloc gc0) /. 1e6);
                ( "gc.top_heap_mib",
                  float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
              ] );
          ( "self_s",
            num_obj
              (if traced then List.map (fun (l, s) -> ("self_s." ^ l, s)) (Spans.layer_self_s ())
               else []) );
        ]
  | _ -> invalid_arg "child: bad arguments"

let reference () =
  ready ();
  emit [ ("errors", errors_json []); ("ref_s", Json.Num (Reference.seconds ())) ]

(* [probe seed size tmp]: the per-layer cost probes in their own child. *)
let probe = function
  | [ seed; size; tmp ] ->
      let size = size_of_string size in
      ready ();
      let metrics, errors =
        try Workloads.probe ~seed:(int_of_string seed) ~size ~tmp
        with e -> ([], [ "raised " ^ Printexc.to_string e ])
      in
      emit
        [
          ("errors", errors_json errors);
          ( "metrics",
            Json.Obj
              (List.map
                 (fun (m : Workloads.metric) ->
                   (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
                 metrics) );
        ]
  | _ -> invalid_arg "probe: bad arguments"

(* ---- parent side --------------------------------------------------------- *)

type record = {
  setup_s : float;
  ref_s : float;
      (** mean time of the reference children just before and just after
          this one ({!Reference}); nan for children that are not units *)
  fields : Json.t;  (** the child's record; [Json.Null] if it never arrived *)
  errors : string list;
}

(* Longest a child may take before it is killed and counted as failed,
   and the time by which every child of this run must have ended. *)
let child_timeout_s = 150.
let deadline = ref infinity

let read_lines fd ~deadline ~on_line =
  let buf = Bytes.create 65536 and pending = Buffer.create 1024 in
  let rec loop () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then `Timeout
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> `Timeout
      | _ ->
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          if n = 0 then `Eof
          else begin
            Buffer.add_subbytes pending buf 0 n;
            let text = Buffer.contents pending in
            let lines = String.split_on_char '\n' text in
            let rec feed = function
              | [ rest ] ->
                  Buffer.clear pending;
                  Buffer.add_string pending rest
              | line :: more ->
                  on_line line;
                  feed more
              | [] -> ()
            in
            feed lines;
            loop ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let child_env tmp =
  let keep = List.filter (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv)) in
  Array.of_list (("TMPDIR=" ^ tmp) :: keep (Array.to_list (Unix.environment ())))

(* Run the benchmark binary as a child with [args] and a fresh private
   temporary directory, and collect its record.  The child is always
   reaped; its temporary directory is always removed. *)
let spawn ~tmp args =
  remove_tree tmp;
  mkdir_p tmp;
  let tmp = if Filename.is_relative tmp then Filename.concat (Sys.getcwd ()) tmp else tmp in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let argv = Array.of_list (Sys.executable_name :: args tmp) in
  let pid =
    Unix.create_process_env Sys.executable_name argv (child_env tmp) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let setup_s = ref nan and fields = ref Json.Null and errors = ref [] in
  let on_line line =
    if line = "ready" then setup_s := Unix.gettimeofday () -. t0
    else if String.length line > 0 && line.[0] = '{' then
      match Json.of_string line with
      | v -> fields := v
      | exception Json.Parse_error e -> errors := ("unreadable child record: " ^ e) :: !errors
  in
  let ended = read_lines rd ~deadline:(Float.min (t0 +. child_timeout_s) !deadline) ~on_line in
  Unix.close rd;
  if ended = `Timeout then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    errors := "child timed out" :: !errors
  end;
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  (match reap () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> errors := Printf.sprintf "child exited with code %d" c :: !errors
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      errors := Printf.sprintf "child killed by signal %d" s :: !errors);
  remove_tree tmp;
  let child_errors =
    match Json.member "errors" !fields with
    | Json.Arr l -> List.map Json.to_str l
    | _ -> [ "child sent no record" ]
  in
  { setup_s = !setup_s; ref_s = nan; fields = !fields; errors = List.rev !errors @ child_errors }

let tmp_dir name = Filename.concat (Filename.concat out_dir "tmp") name

(* The reference runs in a child of its own before and after every
   unit; consecutive units share the reference between them. *)
let last_reference = ref nan

let reference_s () =
  let r = spawn ~tmp:(tmp_dir "reference") (fun _ -> [ "reference" ]) in
  match Json.member "ref_s" r.fields with Json.Num s when r.errors = [] -> s | _ -> nan

let between_references run =
  if Float.is_nan !last_reference then last_reference := reference_s ();
  let before = !last_reference in
  let r = run () in
  last_reference := reference_s ();
  let ref_s = (before +. !last_reference) /. 2. in
  let errors = if Float.is_nan ref_s then [ "reference child failed" ] else [] in
  { r with ref_s; errors = r.errors @ errors }

let run_unit ~workload ~seed ~traced ~size ~index =
  let trace_file =
    Filename.concat out_dir (Printf.sprintf "trace/%s-seed%d-%d.jsonl" workload seed index)
  in
  if traced then mkdir_p (Filename.dirname trace_file);
  between_references (fun () ->
      spawn
        ~tmp:(tmp_dir (Printf.sprintf "%s-%d" workload index))
        (fun tmp ->
          [
            "child";
            workload;
            string_of_int seed;
            (if traced then "1" else "0");
            string_of_size size;
            tmp;
            trace_file;
          ]))

let run_probe ~seed ~size =
  spawn ~tmp:(tmp_dir "probe") (fun tmp ->
      [ "probe"; string_of_int seed; string_of_size size; tmp ])

(* ---- metrics over units ----------------------------------------------------- *)

let field name r = Json.to_float (Json.member name r.fields)
let ok r = r.errors = [] && r.fields <> Json.Null

type metric = { name : string; unit : string; values : float list }

let median m = Quantiles.median m.values

(* Values of the children that reported one; a failed reference leaves
   a unit without its reference times. *)
let metric records name unit f =
  let reported = List.filter (fun r -> r.fields <> Json.Null) records in
  { name; unit; values = List.filter Float.is_finite (List.map f reported) }

let wall_ref r = field "wall_s" r /. r.ref_s

(* The end-to-end metrics, in BENCHMARK.json order: times in units of
   the reference, peak RSS and set-up seconds. *)
let end_to_end records =
  let m = metric records in
  [
    m "wall_ref" "ref" wall_ref;
    m "cpu_ref" "ref" (fun r -> field "cpu_s" r /. r.ref_s);
    m "peak_rss_mib" "MiB" (field "peak_rss_mib");
    m "setup_s" "s" (fun r -> r.setup_s);
    m "work_per_ref" "1/ref" (fun r -> field "work" r *. r.ref_s /. field "wall_s" r);
  ]

(* The same times in seconds, printed and kept in results.jsonl. *)
let seconds records =
  let m = metric records in
  [
    m "wall_s" "s" (field "wall_s");
    m "cpu_s" "s" (field "cpu_s");
    m "work_per_s" "1/s" (fun r -> field "work" r /. field "wall_s" r);
    m "ref_s" "s" (fun r -> r.ref_s);
  ]

let assoc_fields name r =
  match Json.member name r.fields with
  | Json.Obj l -> List.map (fun (k, v) -> (k, Json.to_float v)) l
  | _ -> []

(* Per-key values of an object-valued field across the records that
   report the key, keys in first-seen order. *)
let per_key name ~unit records =
  let keys =
    List.fold_left
      (fun acc r ->
        acc @ List.filter (fun k -> not (List.mem k acc)) (List.map fst (assoc_fields name r)))
      [] records
  in
  List.map
    (fun k ->
      {
        name = k;
        unit = unit k;
        values = List.filter_map (fun r -> List.assoc_opt k (assoc_fields name r)) records;
      })
    keys

let counts r = Json.member "counts" r.fields

(* Exact counts must repeat across units of one seed; a unit that
   disagrees with the first is a failed check. *)
let check_repeatable records =
  match List.filter (fun r -> r.fields <> Json.Null) records with
  | [] -> records
  | first :: _ ->
      List.map
        (fun r ->
          if r.fields = Json.Null || counts r = counts first then r
          else
            {
              r with
              errors =
                r.errors
                @ [
                    Printf.sprintf "counts differ between repeats: %s vs %s"
                      (Json.to_string (counts r))
                      (Json.to_string (counts first));
                  ];
            })
        records
