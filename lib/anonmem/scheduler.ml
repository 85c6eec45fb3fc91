open Repro_util

(* A scheduler is one decision procedure over enabled-set bitmasks: no
   list is built and no option allocated per step ([-1] means "no
   pick").  List callers go through [pick], which converts. *)
type t = { name : string; pick : time:int -> mask:int -> int }

let name t = t.name

let pick t ~time ~enabled =
  match enabled with
  | [] -> None
  | _ ->
      if List.exists (fun p -> p < 0 || p >= Bits.max_width) enabled then
        invalid_arg "Scheduler.pick: processor outside the bitmask window";
      (match t.pick ~time ~mask:(Bits.of_list enabled) with
      | -1 -> None
      | p -> Some p)

let round_robin () =
  let cursor = ref 0 in
  (* Step the first enabled processor at or after the cursor, wrapping;
     then advance past it.  This is fair: every enabled processor is
     chosen at least once every full turn of the cursor. *)
  let pick ~time:_ ~mask =
    let after =
      if !cursor >= Bits.max_width then 0 else mask land (-1 lsl !cursor)
    in
    let chosen = Bits.ctz (if after <> 0 then after else mask) in
    cursor := chosen + 1;
    chosen
  in
  { name = "round-robin"; pick }

(* One draw, then the k-th set bit — the k-th element of the sorted
   enabled set, as [Rng.pick] would take it from the list. *)
let random rng =
  let pick ~time:_ ~mask =
    Bits.nth_set mask (Rng.int rng (Bits.popcount mask))
  in
  { name = "random"; pick }

let solo p =
  let pick ~time:_ ~mask =
    if p < Bits.max_width && mask land (1 lsl p) <> 0 then p else -1
  in
  { name = Printf.sprintf "solo(%d)" p; pick }

let script ?(cycle = false) pids =
  let pids = Array.of_list pids in
  let len = Array.length pids in
  let next = ref 0 in
  (* [next] is the index of the next scripted pid; pids no longer
     enabled are skipped, and one full pass without a pick ends the
     run. *)
  let rec go mask scanned =
    if scanned > len then -1
    else if !next >= len then
      if cycle && len > 0 then begin
        next := 0;
        go mask scanned
      end
      else -1
    else begin
      let p = pids.(!next) in
      incr next;
      if p < Bits.max_width && mask land (1 lsl p) <> 0 then p
      else go mask (scanned + 1)
    end
  in
  {
    name = (if cycle then "script(cyclic)" else "script");
    pick = (fun ~time:_ ~mask -> go mask 0);
  }

let script_then_cycle ~prefix ~cycle =
  let head = script prefix in
  let tail = script ~cycle:true cycle in
  let in_prefix = ref true in
  let pick ~time ~mask =
    if !in_prefix then
      match head.pick ~time ~mask with
      | -1 ->
          in_prefix := false;
          tail.pick ~time ~mask
      | p -> p
    else tail.pick ~time ~mask
  in
  { name = "script-then-cycle"; pick }

let recorded t =
  let picks = ref [] in
  let pick ~time ~mask =
    match t.pick ~time ~mask with
    | -1 -> -1
    | p ->
        picks := p :: !picks;
        p
  in
  ({ name = t.name ^ "+recorded"; pick }, fun () -> List.rev !picks)

let crash ~crash_at t =
  (* No crash can have fired before the earliest crash time.  After it,
     the dead mask only ever grows and time only moves forward: advance
     through the crash times sorted once, clearing bits. *)
  let first_crash =
    Array.fold_left
      (fun acc c -> match c with Some c -> Int.min acc c | None -> acc)
      max_int crash_at
  in
  let events = Fault.crash_order crash_at in
  let dead = ref 0 and idx = ref 0 in
  let pick ~time ~mask =
    if time < first_crash then t.pick ~time ~mask
    else begin
      while !idx < Array.length events && fst events.(!idx) <= time do
        let p = snd events.(!idx) in
        if p < Bits.max_width then dead := !dead lor (1 lsl p);
        incr idx
      done;
      let alive = mask land lnot !dead in
      if alive = 0 then -1 else t.pick ~time ~mask:alive
    end
  in
  { name = t.name ^ "+crashes"; pick }

let crash_faults ~plan t = crash ~crash_at:(Fault.crash_stops plan) t
let fn ~name pick = { name; pick }
