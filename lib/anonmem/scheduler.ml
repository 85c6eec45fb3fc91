open Repro_util

(* Every scheduler carries two views of the same decision procedure: the
   list-based [pick] (the original interface, kept as the specification
   and the fallback for protocols without a flat machine) and an optional
   [mask_pick] over enabled-set bitmasks — the int-machine hot path: no
   list construction, no option allocation ([-1] means "no pick").  Both
   closures share their mutable state (cursor, rng, script position), so
   a run may switch between the two mid-flight (the Fallback shim does)
   without perturbing the decision stream.  A [mask_pick] must choose
   exactly the processor its list twin would choose on the sorted list of
   the mask's bits, drawing from the rng exactly as often — the byte-
   identical-schedule contract the differential suite pins down. *)
type t = {
  name : string;
  pick : time:int -> enabled:int list -> int option;
  mask_pick : (time:int -> mask:int -> int) option;
}

let name t = t.name
let pick t ~time ~enabled = t.pick ~time ~enabled
let mask_pick t = t.mask_pick

let round_robin () =
  let cursor = ref 0 in
  let pick ~time:_ ~enabled =
    match enabled with
    | [] -> None
    | _ ->
        (* Step the first enabled processor at or after the cursor,
           wrapping; then advance past it.  This is fair: every enabled
           processor is chosen at least once every full turn of the
           cursor. *)
        let after = List.filter (fun p -> p >= !cursor) enabled in
        let chosen = match after with p :: _ -> p | [] -> List.hd enabled in
        cursor := chosen + 1;
        Some chosen
  in
  let mask_pick ~time:_ ~mask =
    let after =
      if !cursor >= Bits.max_width then 0 else mask land (-1 lsl !cursor)
    in
    let chosen = Bits.ctz (if after <> 0 then after else mask) in
    cursor := chosen + 1;
    chosen
  in
  { name = "round-robin"; pick; mask_pick = Some mask_pick }

let random rng =
  let pick ~time:_ ~enabled =
    match enabled with [] -> None | l -> Some (Rng.pick rng l)
  in
  (* Rng.pick draws once via [Rng.int (length l)] and takes the k-th
     element of the sorted list; the k-th set bit is the same pid. *)
  let mask_pick ~time:_ ~mask =
    Bits.nth_set mask (Rng.int rng (Bits.popcount mask))
  in
  { name = "random"; pick; mask_pick = Some mask_pick }

let solo p =
  let pick ~time:_ ~enabled = if List.mem p enabled then Some p else None in
  let mask_pick ~time:_ ~mask =
    if p < Bits.max_width && mask land (1 lsl p) <> 0 then p else -1
  in
  { name = Printf.sprintf "solo(%d)" p; pick; mask_pick = Some mask_pick }

let script ?(cycle = false) pids =
  let pids = Array.of_list pids in
  let len = Array.length pids in
  let next = ref 0 in
  (* The list and mask pickers share [next], the index of the next
     scripted pid, and differ only in how enabledness is tested: a pid is
     enabled if its bit is in [mask] or it is in [enabled], and each
     picker leaves the other one empty.  No closure and no pointer write
     per pick. *)
  let rec go ~mask ~enabled scanned =
    if scanned > len then -1
    else if !next >= len then
      if cycle && len > 0 then begin
        next := 0;
        go ~mask ~enabled scanned
      end
      else -1
    else begin
      let p = pids.(!next) in
      incr next;
      if (p < Bits.max_width && mask land (1 lsl p) <> 0) || List.mem p enabled
      then p
      else go ~mask ~enabled (scanned + 1)
    end
  in
  let pick ~time:_ ~enabled =
    match go ~mask:0 ~enabled 0 with -1 -> None | p -> Some p
  in
  let mask_pick ~time:_ ~mask = go ~mask ~enabled:[] 0 in
  {
    name = (if cycle then "script(cyclic)" else "script");
    pick;
    mask_pick = Some mask_pick;
  }

let script_then_cycle ~prefix ~cycle =
  let head = script prefix in
  let tail = script ~cycle:true cycle in
  let in_prefix = ref true in
  let pick ~time ~enabled =
    if !in_prefix then
      match head.pick ~time ~enabled with
      | Some p -> Some p
      | None ->
          in_prefix := false;
          tail.pick ~time ~enabled
    else tail.pick ~time ~enabled
  in
  let mask_pick =
    match (head.mask_pick, tail.mask_pick) with
    | Some hm, Some tm ->
        Some
          (fun ~time ~mask ->
            if !in_prefix then
              match hm ~time ~mask with
              | -1 ->
                  in_prefix := false;
                  tm ~time ~mask
              | p -> p
            else tm ~time ~mask)
    | _ -> None
  in
  { name = "script-then-cycle"; pick; mask_pick }

let recorded t =
  let picks = ref [] in
  let pick ~time ~enabled =
    match t.pick ~time ~enabled with
    | Some p ->
        picks := p :: !picks;
        Some p
    | None -> None
  in
  let mask_pick =
    Option.map
      (fun mp ~time ~mask ->
        match mp ~time ~mask with
        | -1 -> -1
        | p ->
            picks := p :: !picks;
            p)
      t.mask_pick
  in
  ( { name = t.name ^ "+recorded"; pick; mask_pick },
    fun () -> List.rev !picks )

let crash ~crash_at t =
  let alive_at time p =
    match if p < Array.length crash_at then crash_at.(p) else None with
    | Some c -> time < c
    | None -> true
  in
  (* No crash can have fired before the earliest crash time, so until then
     the filter below would rebuild [enabled] unchanged on every pick. *)
  let first_crash =
    Array.fold_left
      (fun acc c -> match c with Some c -> Int.min acc c | None -> acc)
      max_int crash_at
  in
  let pick ~time ~enabled =
    if time < first_crash then t.pick ~time ~enabled
    else
      match List.filter (alive_at time) enabled with
      | [] -> None
      | alive -> t.pick ~time ~enabled:alive
  in
  let mask_pick =
    Option.map
      (fun mp ->
        (* The dead mask only ever grows, and time only moves forward:
           advance through the crash times sorted once, clearing bits. *)
        let events = Fault.crash_order crash_at in
        let dead = ref 0 and idx = ref 0 in
        fun ~time ~mask ->
          if time < first_crash then mp ~time ~mask
          else begin
            while
              !idx < Array.length events && fst events.(!idx) <= time
            do
              let p = snd events.(!idx) in
              if p < Bits.max_width then dead := !dead lor (1 lsl p);
              incr idx
            done;
            let alive = mask land lnot !dead in
            if alive = 0 then -1 else mp ~time ~mask:alive
          end)
      t.mask_pick
  in
  { name = t.name ^ "+crashes"; pick; mask_pick }

let crash_faults ~plan t = crash ~crash_at:(Fault.crash_stops plan) t

let fn ~name pick = { name; pick; mask_pick = None }

let fn_mask ~name ~pick ~mask_pick = { name; pick; mask_pick = Some mask_pick }
