(** Adversary shapes: serializable descriptions of schedule families.

    A shape is a small, seed-independent description of an adversary; a
    concrete {!Anonmem.Scheduler.t} is instantiated from it together with
    an {!Repro_util.Rng.t}, so the same shape value and seed always yield
    the same schedule.  The families cover the adversaries the paper's
    claims quantify over:

    - {!Uniform}: fair random — every enabled processor equally likely;
    - {!Weighted}: unfair random — per-processor integer weights, so some
      processors run orders of magnitude more often than others (the
      covering/overwrite churn of Section 2.1 thrives on asymmetry);
    - {!Crashy}: crash-prone — each processor may stop being scheduled
      forever at a predetermined time (built on {!Anonmem.Scheduler.crash});
    - {!Periodic}: ultimately periodic — a finite prologue followed by a
      cycled script, the shape of Figure 2's steps 5–13 loop (built on
      {!Anonmem.Scheduler.script_then_cycle}). *)

open Repro_util

type shape =
  | Uniform
  | Weighted of int array  (** weight of each processor, [>= 1] *)
  | Crashy of Anonmem.Fault.plan
      (** crash-stop events ({!Anonmem.Fault.Crash_stop}, global times) —
          the same representation the fault injector consumes, so the
          schedule-level and memory-level readings of crash-stop cannot
          drift apart *)
  | Periodic of { prefix : int list; cycle : int list }

let name = function
  | Uniform -> "uniform"
  | Weighted _ -> "weighted"
  | Crashy _ -> "crashy"
  | Periodic _ -> "periodic"

let pp ppf = function
  | Uniform -> Fmt.string ppf "uniform"
  | Weighted w ->
      Fmt.pf ppf "weighted(%a)" Fmt.(array ~sep:(any ",") int) w
  | Crashy plan -> Fmt.pf ppf "crashy(%a)" Anonmem.Fault.pp plan
  | Periodic { prefix; cycle } ->
      Fmt.pf ppf "periodic(%a | %a)"
        Fmt.(list ~sep:(any ",") int)
        (List.map succ prefix)
        Fmt.(list ~sep:(any ",") int)
        (List.map succ cycle)

let weighted_scheduler rng weights =
  let weight p = if p < Array.length weights then Int.max 1 weights.(p) else 1 in
  let pick ~time:_ ~enabled =
    match enabled with
    | [] -> None
    | _ ->
        let total = List.fold_left (fun acc p -> acc + weight p) 0 enabled in
        let draw = Rng.int rng total in
        let rec walk acc = function
          | [] -> List.hd enabled (* unreachable: draw < total *)
          | p :: rest ->
              let acc = acc + weight p in
              if draw < acc then p else walk acc rest
        in
        Some (walk 0 enabled)
  in
  (* The int twin: same single draw against the summed weights of the
     enabled set, then the same ascending cumulative walk — draw-for-draw
     the decision [pick] makes on the sorted enabled list.  The cumulative
     weights over the set bits are cached packed and rebuilt only when the
     mask changes, which happens at most once per halting/crash — so the
     per-step work is one draw and a short array scan. *)
  let cached_mask = ref (-1) in
  let pids = ref [||] and cum = ref [||] in
  let rebuild mask =
    cached_mask := mask;
    let k = Repro_util.Bits.popcount mask in
    let ps = Array.make k 0 and cw = Array.make k 0 in
    let m = ref mask and acc = ref 0 in
    for i = 0 to k - 1 do
      let p = Repro_util.Bits.ctz !m in
      ps.(i) <- p;
      acc := !acc + weight p;
      cw.(i) <- !acc;
      m := !m land (!m - 1)
    done;
    pids := ps;
    cum := cw
  in
  let mask_pick ~time:_ ~mask =
    if mask <> !cached_mask then rebuild mask;
    let cw = !cum in
    let draw = Rng.int rng cw.(Array.length cw - 1) in
    (* First index whose cumulative weight exceeds the draw — exactly the
       first [p] with [draw < acc] in [pick]'s walk. *)
    let i = ref 0 in
    while cw.(!i) <= draw do incr i done;
    !pids.(!i)
  in
  Anonmem.Scheduler.fn_mask ~name:"weighted" ~pick ~mask_pick

(** Instantiate the shape as a concrete scheduler.  All randomness comes
    from [rng], so equal seeds yield equal schedules. *)
let scheduler rng = function
  | Uniform -> Anonmem.Scheduler.random rng
  | Weighted w -> weighted_scheduler rng w
  | Crashy plan -> Anonmem.Scheduler.crash_faults ~plan (Anonmem.Scheduler.random rng)
  | Periodic { prefix; cycle } ->
      Anonmem.Scheduler.script_then_cycle ~prefix ~cycle

(** Draw a random shape for [n] processors.  [horizon] bounds the crash
    times (typically the step budget of the run). *)
let random rng ~n ~horizon =
  match Rng.int rng 10 with
  | 0 | 1 -> Uniform
  | 2 | 3 | 4 ->
      (* Heavily skewed weights: 8^k ratios starve some processors. *)
      Weighted (Array.init n (fun _ -> 1 lsl (3 * Rng.int rng 3)))
  | 5 | 6 ->
      Crashy
        (List.concat
           (List.init n (fun p ->
                if Rng.bool rng then
                  [ Anonmem.Fault.Crash_stop { p; at = Rng.int rng (Int.max 1 horizon) } ]
                else [])))
  | _ ->
      let pids len = List.init len (fun _ -> Rng.int rng n) in
      let prefix = pids (Rng.int rng (3 * n)) in
      let cycle = pids (1 + Rng.int rng (2 * n)) in
      Periodic { prefix; cycle }
