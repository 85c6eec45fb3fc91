(** The empirical feasibility map for the protocol portfolio.

    The Raynal–Taubenfeld symmetric mutex — and the desanonymization
    layer running above it — is deadlock-free in fully-anonymous memory
    exactly when the register count [m] is coprime with every possible
    contention level: [gcd (m, k) = 1] for all [k] in [2..n].  Below
    that, an equal split of the registers among [k] competitors is a
    reachable fair cycle.  Orthogonally there is a covering floor: at
    tiny [m] a pending stale write can obliterate a winner's claims
    ([m = 1] is coprime yet unsolvable — the Burns–Lynch argument; the
    weak-leader protocol loses uniqueness at [m = 1] the same way).

    This module is the pure half of the map: the coprimality predicate,
    the per-cell expectation, the (task, n, m) grids, and the JSON /
    text-table renderers.  The verdict-producing half lives in [Core]
    (it needs the model-checking engines, which sit above this library)
    and is threaded in as the [check] callback of {!run}. *)

open Repro_util

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(** [coprime_ok ~n ~m]: is [m] coprime with every contention level
    [2..n]?  The membership predicate of the paper-adjacent set [M(n)]. *)
let coprime_ok ~n ~m =
  let rec go k = k > n || (gcd m k = 1 && go (k + 1)) in
  m >= 1 && go 2

(** Why a cell is expected to fail, when it is. *)
type expectation =
  | Clean  (** the protocol's requirements hold: verification must pass *)
  | Noncoprime  (** [gcd (m, k) > 1] for some [k <= n]: expect deadlock *)
  | Below_floor
      (** [m] coprime but below the protocol's covering floor: expect a
          safety or liveness violation from a covering race *)

let pp_expectation ppf = function
  | Clean -> Fmt.string ppf "clean"
  | Noncoprime -> Fmt.string ppf "non-coprime"
  | Below_floor -> Fmt.string ppf "below-floor"

(** [expected ~floor ~coprime ~n ~m]: classification of cell [(n, m)] for
    a protocol requiring [m >= floor] and (when [coprime]) coprimality. *)
let expected ~floor ~coprime ~n ~m =
  if coprime && not (coprime_ok ~n ~m) then Noncoprime
  else if m < floor then Below_floor
  else Clean

(** What the checker reported for a cell. *)
type status =
  | Solved of { wirings : int; states : int }
  | Safety_broken of string
  | Deadlock of string
  | Unknown of { reason : string; states : int; checkpoint : string option }
      (** a resource budget ran out mid-cell; [reason] names the budget
          ("wall-clock", "heap", "quota", "interrupted"), [states] how
          far the sweep got, [checkpoint] where to resume from *)

let pp_status ppf = function
  | Solved { wirings; states } ->
      Fmt.pf ppf "solved (%d wirings, %d states)" wirings states
  | Safety_broken msg -> Fmt.pf ppf "safety violation: %s" msg
  | Deadlock msg -> Fmt.pf ppf "deadlock: %s" msg
  | Unknown { reason; states; checkpoint } ->
      Fmt.pf ppf "unknown (%s budget exhausted at %d states%a)" reason states
        Fmt.(option (any ", checkpoint " ++ string))
        checkpoint

let status_keyword = function
  | Solved _ -> "solved"
  | Safety_broken _ -> "safety-violation"
  | Deadlock _ -> "deadlock"
  | Unknown _ -> "unknown"

(** Is the status a conclusive verdict about the cell?  An exhausted
    budget is not: a resumed or re-budgeted run must recompute it. *)
let status_final = function
  | Solved _ | Safety_broken _ | Deadlock _ -> true
  | Unknown _ -> false

(** Does the observed status confirm the expectation?  An exhausted
    budget confirms nothing. *)
let confirms expectation status =
  match (expectation, status) with
  | Clean, Solved _ -> true
  | (Noncoprime | Below_floor), (Safety_broken _ | Deadlock _) -> true
  | _ -> false

type cell = {
  task : string;
  n : int;
  m : int;
  expectation : expectation;
  status : status;
}

type grid = {
  g_task : string;  (** checker key and display name *)
  g_floor : int;  (** minimum [m] the protocol documents as sufficient *)
  g_coprime : bool;  (** does the protocol require the coprimality set? *)
  g_cells : (int * int) list;  (** [(n, m)] cells to check, in order *)
}

let span ~n ms = List.map (fun m -> (n, m)) ms

(** The default portfolio grids.  [quick] restricts to [n = 2] (a smoke
    budget); the full map adds the [n = 3] rows that confirm the
    threshold moves with [n] ([m = 3] flips from clean to deadlocked). *)
let grids ?(quick = false) () =
  let mutex_cells =
    span ~n:2 [ 1; 2; 3; 4; 5; 6 ] @ if quick then [] else span ~n:3 [ 1; 2; 3; 4; 5 ]
  in
  (* Naming's n=3 row stops at the threshold flip (m = 3 safety-broken,
     m = 4 deadlocked): its first clean n=3 cell would be m = 5, whose
     full sweep only the packed mutex engine could afford — and naming's
     feasibility is *inherited* from the mutex it wraps (the ledger
     flood adds no register contention of its own; see naming.ml), so
     the mutex (3,5) cell already pins that boundary empirically. *)
  let naming_cells =
    span ~n:2 [ 2; 3; 4; 5 ] @ if quick then [] else span ~n:3 [ 3; 4 ]
  in
  let leader_cells =
    span ~n:2 [ 1; 2; 3; 4 ] @ if quick then [] else span ~n:3 [ 1; 2; 3; 4 ]
  in
  [
    { g_task = "mutex"; g_floor = 3; g_coprime = true; g_cells = mutex_cells };
    { g_task = "naming"; g_floor = 3; g_coprime = true; g_cells = naming_cells };
    { g_task = "leader"; g_floor = 2; g_coprime = false; g_cells = leader_cells };
  ]

(* --- durable-run cell codec ------------------------------------------- *)

(* One cell per line, space-separated, human-greppable:
     task n m solved WIRINGS STATES
     task n m safety-violation MESSAGE...
     task n m deadlock MESSAGE...
     task n m unknown REASON STATES CHECKPOINT-or--
   This is the payload format of the run journal (lib/runtime/journal
   frames it with sequence numbers and checksums); it must round-trip
   exactly, which the durability tests assert. *)

let cell_to_record c =
  let status =
    match c.status with
    | Solved { wirings; states } -> Printf.sprintf "solved %d %d" wirings states
    | Safety_broken msg -> "safety-violation " ^ msg
    | Deadlock msg -> "deadlock " ^ msg
    | Unknown { reason; states; checkpoint } ->
        Printf.sprintf "unknown %s %d %s" reason states
          (match checkpoint with None -> "-" | Some p -> p)
  in
  Printf.sprintf "%s %d %d %s" c.task c.n c.m status

let cell_of_record ~floor_of ~coprime_of line =
  let int_opt s = int_of_string_opt s in
  match String.split_on_char ' ' line with
  | task :: ns :: ms :: rest -> (
      match (int_opt ns, int_opt ms) with
      | Some n, Some m -> (
          let status =
            match rest with
            | [ "solved"; w; s ] -> (
                match (int_opt w, int_opt s) with
                | Some wirings, Some states -> Some (Solved { wirings; states })
                | _ -> None)
            | "safety-violation" :: msg when msg <> [] ->
                Some (Safety_broken (String.concat " " msg))
            | "deadlock" :: msg when msg <> [] ->
                Some (Deadlock (String.concat " " msg))
            | [ "unknown"; reason; s; ckpt ] ->
                Option.map
                  (fun states ->
                    Unknown
                      {
                        reason;
                        states;
                        checkpoint = (if ckpt = "-" then None else Some ckpt);
                      })
                  (int_opt s)
            | _ -> None
          in
          match status with
          | None -> None
          | Some status ->
              let expectation =
                expected ~floor:(floor_of task) ~coprime:(coprime_of task) ~n ~m
              in
              Some { task; n; m; expectation; status })
      | _ -> None)
  | _ -> None

(** [floor_of]/[coprime_of] lookups for {!cell_of_record} derived from a
    grid list (unknown tasks get floor 0 / no coprimality, which only
    affects the re-derived expectation, never the status). *)
let grid_params grids =
  let floor_of task =
    match List.find_opt (fun g -> g.g_task = task) grids with
    | Some g -> g.g_floor
    | None -> 0
  and coprime_of task =
    match List.find_opt (fun g -> g.g_task = task) grids with
    | Some g -> g.g_coprime
    | None -> false
  in
  (floor_of, coprime_of)

(** Run the map: [check ~task ~n ~m] produces each cell's status (in
    [Core] this is the exhaustive model checker; tests substitute
    stubs).  [on_cell] fires after each cell for progress reporting.

    Durable runs thread three more hooks.  [cached ~task ~n ~m] is
    consulted first; a [Some] answer (from a prior run's journal)
    short-circuits the checker.  [on_fresh] fires only for cells that
    were actually computed this run — the journal writer, so replayed
    cells are not re-journaled.  [stop ()] is polled before each cell;
    once true the remaining cells are skipped entirely (the SIGINT
    path: the map returned so far is still a valid partial map). *)
let run ?on_cell ?on_fresh ?cached ?(stop = fun () -> false) ~check grids =
  List.concat_map
    (fun g ->
      List.filter_map
        (fun (n, m) ->
          if stop () then None
          else
            let expectation =
              expected ~floor:g.g_floor ~coprime:g.g_coprime ~n ~m
            in
            let from_cache =
              match cached with
              | Some f -> f ~task:g.g_task ~n ~m
              | None -> None
            in
            let status, fresh =
              match from_cache with
              | Some s -> (s, false)
              | None -> (check ~task:g.g_task ~n ~m, true)
            in
            let cell = { task = g.g_task; n; m; expectation; status } in
            if fresh then
              (match on_fresh with Some f -> f cell | None -> ());
            (match on_cell with Some f -> f cell | None -> ());
            Some cell)
        g.g_cells)
    grids

(** Every cell confirmed its expectation — no surprises, and no cell
    left unknown, in the map. *)
let all_confirmed cells =
  List.for_all (fun c -> confirms c.expectation c.status) cells

(* --- rendering -------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** Hand-rolled JSON (the repo deliberately has no JSON dependency):
    one object per cell, stable key order, newline-separated — diffable
    and machine-readable. *)
let to_json cells =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"feasibility\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      let detail =
        match c.status with
        | Solved { wirings; states } ->
            Printf.sprintf "\"wirings\": %d, \"states\": %d" wirings states
        | Safety_broken msg | Deadlock msg ->
            Printf.sprintf "\"detail\": \"%s\"" (json_escape msg)
        | Unknown { reason; states; checkpoint } ->
            Printf.sprintf "\"reason\": \"%s\", \"states\": %d%s"
              (json_escape reason) states
              (match checkpoint with
              | None -> ""
              | Some p ->
                  Printf.sprintf ", \"checkpoint\": \"%s\"" (json_escape p))
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"task\": \"%s\", \"n\": %d, \"m\": %d, \"coprime\": %b, \
            \"expected\": \"%s\", \"status\": \"%s\", \"confirmed\": %b, %s}"
           (json_escape c.task) c.n c.m
           (coprime_ok ~n:c.n ~m:c.m)
           (Fmt.str "%a" pp_expectation c.expectation)
           (status_keyword c.status)
           (confirms c.expectation c.status)
           detail))
    cells;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"all_confirmed\": %b\n}\n" (all_confirmed cells));
  Buffer.contents b

let to_table cells =
  let t =
    Text_table.create
      ~headers:[ "task"; "n"; "m"; "coprime"; "expected"; "verdict"; "ok" ]
  in
  List.iter
    (fun c ->
      Text_table.add_row t
        [
          c.task;
          string_of_int c.n;
          string_of_int c.m;
          (if coprime_ok ~n:c.n ~m:c.m then "yes" else "no");
          Fmt.str "%a" pp_expectation c.expectation;
          status_keyword c.status;
          (if confirms c.expectation c.status then "confirmed" else "!!");
        ])
    cells;
  t
