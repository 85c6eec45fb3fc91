(* Model-checking benchmark: states visited, wall-clock and peak memory
   for the snapshot exploration under the four engine configurations —
   sequential, sequential + symmetry reduction, parallel x {1,2,4}
   domains, with and without reduction.  Results go to BENCH_mc.json
   (hand-rolled JSON, no external dependency) and a human-readable table
   on stdout; EXPERIMENTS.md tables X6/X7 are generated from this output.

   The headline case is the 3-processor identity-wiring snapshot with a
   single input class — the largest symmetry group (|G| = 6) and the
   configuration whose full space is infeasible to sweep inside the test
   suite.  On a single-core host the parallel rows measure overhead, not
   speedup; the acceptance claims are carried by the visited-state
   reduction column and by the arena-vs-seed-layout memory comparison.

   Memory columns.  [live_words] is the exact retained size of the row's
   result value, [Obj.reachable_words] over the explored space for
   sequential rows (the parallel engine discards its space and retains
   only a stats record, so par rows report a handful of words).  Earlier
   revisions reported a GC live-word delta instead, which went negative
   on rows that spawn and join domains — joined domains fold their minor
   heaps back into the major heap, so the "before" baseline is not
   comparable to the "after" reading.  Reachable words are non-negative
   by construction and count shared blocks once.  [top_heap_words] is
   the process-wide heap high-water mark when the row finishes (monotone
   across rows — cases run smallest first, so the headline rows own the
   peak).  The headline full row is additionally rebuilt in the
   pre-arena seed layout (string Hashtbl + boxed key vector + int edge
   vectors) and measured the same way, so the compaction factor compares
   identical state/transition counts. *)

open Repro_util
module Snap = Algorithms.Snapshot
module St = Modelcheck.State_table
module P = Modelcheck.Codecs.Snapshot
module E = Modelcheck.Explorer.Make (P)
module Par = Modelcheck.Par_explorer.Make (P)

type row = {
  case : string;
  engine : string; (* "seq" | "par" | "ws" | "fp" *)
  domains : int;
  reduction : bool;
  states : int;
  transitions : int;
  wall_s : float;
  live_words : int;  (** retained words of the explored space *)
  top_heap_words : int;  (** process heap high-water mark at row end *)
  spill_bytes : int;  (** fingerprint rows: bytes written to disk runs *)
  omission_bound : float;  (** fingerprint rows: states^2 / 2^64 *)
  rss_kb : int;
      (** VmHWM at row end — the process-wide resident high-water mark,
          monotone across rows, so RAM-cap claims must be read off rows
          that run *before* the larger exact explorations *)
}

let rows : row list ref = ref []

(* Peak resident set (VmHWM, kB) from /proc/self/status; 0 when the
   field is unavailable (non-Linux hosts). *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go acc =
        match input_line ic with
        | line ->
            let acc =
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                try
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d" Fun.id
                with Scanf.Scan_failure _ | Failure _ -> acc
              else acc
            in
            go acc
        | exception End_of_file ->
            close_in ic;
            acc
      in
      go 0

let measure f =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let live_words = Obj.reachable_words (Obj.repr r) in
  (r, wall_s, live_words, (Gc.stat ()).Gc.top_heap_words)

(* Rebuild [space] in the pre-arena layout this benchmark used before the
   State_table rewrite — (string, id) Hashtbl over boxed key strings, a
   string Vec for id -> key (sharing the same strings, as the seed did),
   an int Vec of packed parents and two int Vecs of packed edges — and
   return its retained size in words, measured exactly like [measure]
   does ([Obj.reachable_words] over the rebuilt structures).  States,
   transitions and per-entry contents are identical to the arena space,
   so the ratio to the arena row's [live_words] is a like-for-like
   compaction factor. *)
let seed_layout_words (space : E.space) =
  let n = E.state_count space in
  let off = E.csr_offsets space in
  let table : (string, int) Hashtbl.t = Hashtbl.create (1 lsl 16) in
  let keys : string Vec.t = Vec.create () in
  St.iter
    (fun id key ->
      ignore (Vec.push keys key);
      Hashtbl.add table key id)
    space.E.table;
  let parent : int Vec.t = Vec.create () in
  for id = 0 to n - 1 do
    ignore (Vec.push parent (E.parent_packed space id))
  done;
  let edge_src : int Vec.t = Vec.create () in
  let edge_dst : int Vec.t = Vec.create () in
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let packed = St.Packed_vec.get space.E.succ i in
      ignore (Vec.push edge_src ((u lsl 4) lor (packed land 15)));
      ignore (Vec.push edge_dst (packed asr 4))
    done
  done;
  Obj.reachable_words (Obj.repr (table, keys, parent, edge_src, edge_dst))

(* (seed_layout_words, arena live_words) of the headline full seq row. *)
let layout_comparison : (int * int) option ref = ref None

let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

let seq_case ?stop_expansion ~case ~reduction ~cfg ~wiring ~inputs () =
  let space, wall_s, live_words, top_heap_words =
    measure (fun () ->
        match E.explore ?stop_expansion ~reduction ~cfg ~wiring ~inputs () with
        | E.Explored sp -> sp
        | _ -> failwith (case ^ ": sequential exploration did not complete"))
  in
  let states = E.state_count space
  and transitions = E.transition_count space in
  rows :=
    {
      case;
      engine = "seq";
      domains = 1;
      reduction;
      states;
      transitions;
      wall_s;
      live_words;
      top_heap_words;
      spill_bytes = 0;
      omission_bound = 0.0;
      rss_kb = vm_hwm_kb ();
    }
    :: !rows;
  Printf.printf "%-24s %-10s %s %9d states %9d trans %8.2fs %8.1f MiB\n%!"
    case "seq"
    (if reduction then "red  " else "full ")
    states transitions wall_s (mib_of_words live_words);
  (space, live_words)

let par_case ~case ~domains ~reduction ~cfg ~wiring ~inputs () =
  let stats, wall_s, live_words, top_heap_words =
    measure (fun () ->
        match Par.explore ~reduction ~domains ~cfg ~wiring ~inputs () with
        | Par.Par_ok { stats; _ } -> stats
        | _ -> failwith (case ^ ": parallel exploration did not complete"))
  in
  let states = stats.Par.states and transitions = stats.Par.transitions in
  rows :=
    {
      case;
      engine = "par";
      domains;
      reduction;
      states;
      transitions;
      wall_s;
      live_words;
      top_heap_words;
      spill_bytes = 0;
      omission_bound = 0.0;
      rss_kb = vm_hwm_kb ();
    }
    :: !rows;
  Printf.printf "%-24s par x%d     %s %9d states %9d trans %8.2fs %8.1f MiB\n%!"
    case domains
    (if reduction then "red  " else "full ")
    states transitions wall_s (mib_of_words live_words)

module Ws = Modelcheck.Ws_explorer.Make (P)

let ws_case ~case ~domains ~reduction ~cfg ~wiring ~inputs () =
  let stats, wall_s, live_words, top_heap_words =
    measure (fun () ->
        match Ws.explore ~reduction ~domains ~cfg ~wiring ~inputs () with
        | Ws.Ws_ok { stats; _ } -> stats
        | _ -> failwith (case ^ ": work-stealing exploration did not complete"))
  in
  let states = stats.Ws.states and transitions = stats.Ws.transitions in
  rows :=
    {
      case;
      engine = "ws";
      domains;
      reduction;
      states;
      transitions;
      wall_s;
      live_words;
      top_heap_words;
      spill_bytes = 0;
      omission_bound = 0.0;
      rss_kb = vm_hwm_kb ();
    }
    :: !rows;
  Printf.printf
    "%-24s ws  x%d     %s %9d states %9d trans %8.2fs %6d steals\n%!" case
    domains
    (if reduction then "red  " else "full ")
    states transitions wall_s stats.Ws.steals

(* A fingerprint row: RAM-bounded safety-only exploration.  [expect]
   (when the exact twin already ran) pins state/transition parity hard;
   the n=4 row runs *before* its exact twin so its VmHWM reading is its
   own, and is cross-checked post hoc. *)
let fp_case ?stop_expansion ?expect ~case ~reduction ~ram_budget_bytes ~cfg
    ~wiring ~inputs () =
  let st, wall_s, live_words, top_heap_words =
    measure (fun () ->
        match
          E.explore_fp ?stop_expansion ~reduction ~ram_budget_bytes ~cfg
            ~wiring ~inputs ()
        with
        | E.Fp_explored st -> st
        | _ -> failwith (case ^ ": fingerprint exploration did not complete"))
  in
  (match expect with
  | Some (states, transitions)
    when states <> st.E.fp_states || transitions <> st.E.fp_transitions ->
      failwith (case ^ ": fingerprint run lost parity with the exact engine")
  | _ -> ());
  let rss_kb = vm_hwm_kb () in
  rows :=
    {
      case;
      engine = "fp";
      domains = 1;
      reduction;
      states = st.E.fp_states;
      transitions = st.E.fp_transitions;
      wall_s;
      live_words;
      top_heap_words;
      spill_bytes = st.E.fp_bytes_spilled;
      omission_bound = st.E.fp_bound;
      rss_kb;
    }
    :: !rows;
  Printf.printf
    "%-24s fp (%3dMiB) %s %9d states %9d trans %8.2fs %2d runs %8.1f MiB \
     spilled, bound %.3g, VmHWM %.1f MiB\n\
     %!"
    case
    (ram_budget_bytes / 1048576)
    (if reduction then "red  " else "full ")
    st.E.fp_states st.E.fp_transitions wall_s st.E.fp_runs
    (float_of_int st.E.fp_bytes_spilled /. 1048576.)
    st.E.fp_bound
    (float_of_int rss_kb /. 1024.)

let run_matrix ?(measure_layout = false) ~case ~domain_counts ~cfg ~wiring
    ~inputs () =
  let full_space = ref None in
  List.iter
    (fun reduction ->
      let space, live = seq_case ~case ~reduction ~cfg ~wiring ~inputs () in
      if not reduction then full_space := Some space;
      if measure_layout && not reduction then begin
        let seed = seed_layout_words space in
        layout_comparison := Some (seed, live);
        Printf.printf
          "%-24s seed-layout replica: %8.1f MiB vs arena %8.1f MiB (%.2fx)\n%!"
          case (mib_of_words seed) (mib_of_words live)
          (float_of_int seed /. float_of_int live)
      end;
      List.iter
        (fun domains ->
          par_case ~case ~domains ~reduction ~cfg ~wiring ~inputs ();
          ws_case ~case ~domains ~reduction ~cfg ~wiring ~inputs ())
        domain_counts)
    [ false; true ];
  Option.get !full_space

let json_of_rows rows ~reduction_factor ~layout ~universe =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"mc\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"host_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b
    (Printf.sprintf "  \"snapshot3_state_reduction_factor\": %.2f,\n"
       reduction_factor);
  (match layout with
  | Some (seed, arena) ->
      Buffer.add_string b
        (Printf.sprintf "  \"headline_seed_layout_words\": %d,\n" seed);
      Buffer.add_string b
        (Printf.sprintf "  \"headline_arena_words\": %d,\n" arena);
      Buffer.add_string b
        (Printf.sprintf "  \"headline_memory_factor\": %.2f,\n"
           (float_of_int seed /. float_of_int arena))
  | None -> ());
  (let u = universe in
   Buffer.add_string b
     (Printf.sprintf "  \"invariant_universe_n4_syn_states\": %d,\n"
        u.Modelcheck.Inductive.u_syn_states);
   Buffer.add_string b
     (Printf.sprintf "  \"invariant_universe_n4_adm_states\": %d,\n"
        u.Modelcheck.Inductive.u_adm_states);
   Buffer.add_string b
     (Printf.sprintf "  \"invariant_candidate_state_reduction_n4\": %.2f,\n"
        (float_of_int u.Modelcheck.Inductive.u_syn_states
        /. float_of_int u.Modelcheck.Inductive.u_adm_states)));
  Buffer.add_string b "  \"cases\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"case\": %S, \"engine\": %S, \"domains\": %d, \"reduction\": \
            %b, \"states\": %d, \"transitions\": %d, \"wall_s\": %.3f, \
            \"live_words\": %d, \"top_heap_words\": %d, \"spill_bytes\": %d, \
            \"omission_bound\": %.3g, \"rss_kb\": %d}%s\n"
           r.case r.engine r.domains r.reduction r.states r.transitions
           r.wall_s r.live_words r.top_heap_words r.spill_bytes
           r.omission_bound r.rss_kb
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let quick = Array.mem "--quick" Sys.argv in
  (* n = 2, the wiring with a nontrivial automorphism and one input
     class: the smallest configuration where reduction bites. *)
  let cfg2 = Snap.standard ~n:2 in
  let group_wiring2 =
    match Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true with
    | _ :: w :: _ -> w
    | _ -> assert false
  in
  let sp2 =
    run_matrix ~measure_layout:quick ~case:"snapshot_n2_group"
      ~domain_counts:[ 1; 2; 4 ] ~cfg:cfg2 ~wiring:group_wiring2
      ~inputs:[| 1; 1 |] ()
  in
  (* Fingerprint twins of the n=2 rows: a deliberately starved 1 KiB
     budget forces the disk-spill path even on this tiny space. *)
  fp_case ~case:"snapshot_n2_group" ~reduction:false ~ram_budget_bytes:1024
    ~expect:(E.state_count sp2, E.transition_count sp2)
    ~cfg:cfg2 ~wiring:group_wiring2 ~inputs:[| 1; 1 |] ();
  fp_case ~case:"snapshot_n2_group" ~reduction:true ~ram_budget_bytes:1024
    ~cfg:cfg2 ~wiring:group_wiring2 ~inputs:[| 1; 1 |] ();
  (* n = 3, identity wiring, single input class: |G| = 6, ~2M raw states. *)
  if not quick then begin
    let cfg3 = Snap.standard ~n:3 in
    let wiring3 = Anonmem.Wiring.identity ~n:3 ~m:3 in
    (* n = 4, identity wiring, bounded depth: expansion stops once two
       processors have completed a scan — a symmetric predicate, so the
       reduced run explores the true quotient of the bounded space.
       Even the |G| = 24 quotient holds ~28.5M states; the raw space
       overflows the explorer's default state limit (measured > 60M
       states without completing), and in the seed's boxed layout its
       keys, hashtable chains and 2x8-byte edge words would not fit
       this host alongside GC copying headroom.  The arena keeps the
       quotient row in flat bytes.  Sequential engine only — the
       parallel engine takes no stop predicate, and on this host it
       measures overhead. *)
    let stop_two_scans (st : E.state) =
      let c = ref 0 in
      Array.iter
        (fun l -> if Snap.level_of_local l >= 1 then incr c)
        st.E.locals;
      !c >= 2
    in
    let cfg4 = Snap.cfg ~n:4 ~m:4 in
    let wiring4 = Anonmem.Wiring.identity ~n:4 ~m:4 in
    let inputs4 = [| 1; 1; 1; 1 |] in
    (* The headline fingerprint row runs FIRST: VmHWM is process-wide
       and monotone, so the RAM-cap claim (the 28.5M-state n=4 quotient
       to a verdict inside a 128 MiB fingerprint budget, spill engaged)
       must be read before the exact giants raise the high-water mark.
       Parity with the exact n=4 row is asserted post hoc below. *)
    fp_case ~stop_expansion:stop_two_scans ~case:"snapshot_n4_bounded"
      ~reduction:true
      ~ram_budget_bytes:(128 * 1024 * 1024)
      ~cfg:cfg4 ~wiring:wiring4 ~inputs:inputs4 ();
    let sp3 =
      run_matrix ~measure_layout:true ~case:"snapshot_n3_identity"
        ~domain_counts:[ 1; 2; 4 ] ~cfg:cfg3 ~wiring:wiring3
        ~inputs:[| 1; 1; 1 |] ()
    in
    (* Fingerprint twins at 4 MiB — enough to force several spill runs
       on the ~2M-state space while matching the exact counts. *)
    fp_case ~case:"snapshot_n3_identity" ~reduction:false
      ~ram_budget_bytes:(4 * 1024 * 1024)
      ~expect:(E.state_count sp3, E.transition_count sp3)
      ~cfg:cfg3 ~wiring:wiring3 ~inputs:[| 1; 1; 1 |] ();
    fp_case ~case:"snapshot_n3_identity" ~reduction:true
      ~ram_budget_bytes:(4 * 1024 * 1024)
      ~cfg:cfg3 ~wiring:wiring3 ~inputs:[| 1; 1; 1 |] ();
    ignore
      (seq_case ~stop_expansion:stop_two_scans ~case:"snapshot_n4_bounded"
         ~reduction:true ~cfg:cfg4 ~wiring:wiring4 ~inputs:inputs4 ())
  end;
  let ordered = List.rev !rows in
  (* Cross-engine parity, post hoc: every fingerprint and work-stealing
     row must agree with the sequential row of its (case, reduction)
     cell — this is the check that covers rows whose exact twin ran
     after them (the n=4 fingerprint row) and every reduced twin. *)
  List.iter
    (fun r ->
      if r.engine = "fp" || r.engine = "ws" then
        match
          List.find_opt
            (fun s ->
              s.engine = "seq" && s.case = r.case && s.reduction = r.reduction)
            ordered
        with
        | Some s when s.states <> r.states || s.transitions <> r.transitions ->
            failwith
              (Printf.sprintf "%s: %s row lost parity with the exact engine"
                 r.case r.engine)
        | _ -> ())
    ordered;
  let headline = if quick then "snapshot_n2_group" else "snapshot_n3_identity" in
  let find ~reduction =
    List.find_opt
      (fun r -> r.case = headline && r.engine = "seq" && r.reduction = reduction)
      ordered
  in
  let reduction_factor =
    match (find ~reduction:false, find ~reduction:true) with
    | Some full, Some red when red.states > 0 ->
        float_of_int full.states /. float_of_int red.states
    | _ -> nan
  in
  (* Candidate-universe accounting at n=4 from the closed-form counter:
     syntactic local assignments vs assignments admitted by the proved
     clauses — the candidate-state reduction the proved invariant
     represents on the bounded row. *)
  let universe =
    Modelcheck.Inductive.universe_counts ~n:4 Modelcheck.Inductive.proved
  in
  Printf.printf
    "invariant universe @ n=4: %d syntactic -> %d admitted local \
     assignments (%.1fx candidate-state reduction)\n"
    universe.Modelcheck.Inductive.u_syn_states
    universe.Modelcheck.Inductive.u_adm_states
    (float_of_int universe.Modelcheck.Inductive.u_syn_states
    /. float_of_int universe.Modelcheck.Inductive.u_adm_states);
  let oc = open_out "BENCH_mc.json" in
  output_string oc
    (json_of_rows ordered ~reduction_factor ~layout:!layout_comparison
       ~universe);
  close_out oc;
  (match !layout_comparison with
  | Some (seed, arena) ->
      Printf.printf
        "\n\
         %s: %.2fx visited-state reduction, %.2fx memory reduction vs \
         seed layout; wrote BENCH_mc.json\n"
        headline reduction_factor
        (float_of_int seed /. float_of_int arena)
  | None ->
      Printf.printf
        "\n%s: %.2fx visited-state reduction; wrote BENCH_mc.json\n" headline
        reduction_factor)
