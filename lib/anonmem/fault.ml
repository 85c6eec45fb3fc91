(* Serializable fault plans shared by every execution layer.  See the
   interface for the taxonomy and the per-layer reading of times. *)

type event =
  | Crash_stop of { p : int; at : int }
  | Crash_recover of { p : int; at : int }
  | Omit_write of { p : int; at : int }
  | Stale_read of { p : int; at : int }
  | Stuck_register of { reg : int; at : int }

type plan = event list

(* (time, kind rank, index) — a total order making plans canonical. *)
let key = function
  | Crash_stop { p; at } -> (at, 0, p)
  | Crash_recover { p; at } -> (at, 1, p)
  | Omit_write { p; at } -> (at, 2, p)
  | Stale_read { p; at } -> (at, 3, p)
  | Stuck_register { reg; at } -> (at, 4, reg)

let normalize plan =
  List.sort_uniq (fun a b -> compare (key a) (key b)) plan

let is_crash_free plan =
  List.for_all
    (function Crash_stop _ | Crash_recover _ -> false | _ -> true)
    plan

let max_p plan =
  List.fold_left
    (fun acc -> function
      | Crash_stop { p; _ } | Crash_recover { p; _ } | Omit_write { p; _ }
      | Stale_read { p; _ } ->
          max acc p
      | Stuck_register _ -> acc)
    (-1) plan

let crash_stops ?n plan =
  let n = match n with Some n -> n | None -> max_p plan + 1 in
  let a = Array.make (max n 0) None in
  List.iter
    (function
      | Crash_stop { p; at } when p >= 0 && p < n -> (
          match a.(p) with
          | Some at' when at' <= at -> ()
          | _ -> a.(p) <- Some at)
      | _ -> ())
    plan;
  a

let crash_order crash_at =
  Array.to_list crash_at
  |> List.mapi (fun p c -> Option.map (fun c -> (c, p)) c)
  |> List.filter_map Fun.id
  |> List.sort (fun (c, p) (c', p') ->
         match Int.compare c c' with 0 -> Int.compare p p' | d -> d)
  |> Array.of_list

let recoveries plan =
  List.filter_map
    (function Crash_recover { p; at } -> Some (at, p) | _ -> None)
    plan
  |> List.sort compare

let arms ~n sel plan =
  let a = Array.make n [] in
  List.iter
    (fun ev ->
      match sel ev with
      | Some (p, at) when p >= 0 && p < n -> a.(p) <- at :: a.(p)
      | _ -> ())
    plan;
  Array.map (List.sort compare) a

let omit_arms ~n plan =
  arms ~n (function Omit_write { p; at } -> Some (p, at) | _ -> None) plan

let stale_arms ~n plan =
  arms ~n (function Stale_read { p; at } -> Some (p, at) | _ -> None) plan

let stuck_times ~m plan =
  let a = Array.make m None in
  List.iter
    (function
      | Stuck_register { reg; at } when reg >= 0 && reg < m -> (
          match a.(reg) with
          | Some at' when at' <= at -> ()
          | _ -> a.(reg) <- Some at)
      | _ -> ())
    plan;
  a

let drop_processor ~p plan =
  let shift q = if q > p then q - 1 else q in
  List.filter_map
    (function
      | Crash_stop { p = q; at } ->
          if q = p then None else Some (Crash_stop { p = shift q; at })
      | Crash_recover { p = q; at } ->
          if q = p then None else Some (Crash_recover { p = shift q; at })
      | Omit_write { p = q; at } ->
          if q = p then None else Some (Omit_write { p = shift q; at })
      | Stale_read { p = q; at } ->
          if q = p then None else Some (Stale_read { p = shift q; at })
      | Stuck_register _ as ev -> Some ev)
    plan

let drop_register ~reg plan =
  List.filter_map
    (function
      | Stuck_register { reg = r; at } ->
          if r = reg then None
          else Some (Stuck_register { reg = (if r > reg then r - 1 else r); at })
      | ev -> Some ev)
    plan

let pp_event ppf = function
  | Crash_stop { p; at } -> Fmt.pf ppf "crash:p%d@@%d" (p + 1) at
  | Crash_recover { p; at } -> Fmt.pf ppf "recover:p%d@@%d" (p + 1) at
  | Omit_write { p; at } -> Fmt.pf ppf "omit:p%d@@%d" (p + 1) at
  | Stale_read { p; at } -> Fmt.pf ppf "stale:p%d@@%d" (p + 1) at
  | Stuck_register { reg; at } -> Fmt.pf ppf "stuck:r%d@@%d" (reg + 1) at

let pp ppf = function
  | [] -> Fmt.string ppf "(no faults)"
  | plan -> Fmt.(list ~sep:(any "; ") pp_event) ppf plan

let to_string plan =
  String.concat "; " (List.map (Fmt.to_to_string pp_event) plan)

let of_string s =
  let fail fmt = Fmt.kstr invalid_arg ("Fault.of_string: " ^^ fmt) in
  let index ~prefix tok =
    (* "p2" / "r2" / bare "2" — 1-based on the wire. *)
    let tok = String.trim tok in
    let digits =
      if String.length tok > 0 && tok.[0] = prefix then
        String.sub tok 1 (String.length tok - 1)
      else tok
    in
    match int_of_string_opt digits with
    | Some i when i >= 1 -> i - 1
    | _ -> fail "bad index %S (expected e.g. %c2)" tok prefix
  in
  let event tok =
    match String.index_opt tok ':' with
    | None -> fail "missing ':' in %S" tok
    | Some i -> (
        let kind = String.trim (String.sub tok 0 i) in
        let rest = String.sub tok (i + 1) (String.length tok - i - 1) in
        let who, at =
          match String.index_opt rest '@' with
          | None -> fail "missing '@TIME' in %S" tok
          | Some j -> (
              let who = String.sub rest 0 j in
              let t = String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) in
              match int_of_string_opt t with
              | Some t when t >= 0 -> (who, t)
              | _ -> fail "bad time %S in %S" t tok)
        in
        match kind with
        | "crash" -> Crash_stop { p = index ~prefix:'p' who; at }
        | "recover" -> Crash_recover { p = index ~prefix:'p' who; at }
        | "omit" -> Omit_write { p = index ~prefix:'p' who; at }
        | "stale" -> Stale_read { p = index ~prefix:'p' who; at }
        | "stuck" -> Stuck_register { reg = index ~prefix:'r' who; at }
        | k -> fail "unknown fault kind %S (crash|recover|omit|stale|stuck)" k)
  in
  String.split_on_char ';' s
  |> List.filter_map (fun tok ->
         let tok = String.trim tok in
         if tok = "" then None else Some (event tok))
