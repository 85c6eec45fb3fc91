(** Figure 5: obstruction-free consensus, by derandomizing Chandra's
    shared-coin algorithm (Chandra 1996) on top of the long-lived snapshot,
    following Guerraoui and Ruppert (2005).

    Each processor maintains a preference (initially its input) and a
    monotonically increasing timestamp (initially 0).  It repeatedly invokes
    the long-lived snapshot with the pair [(preference, timestamp)] as
    input.  Upon obtaining a snapshot it decides a value [v] if [v] appears
    with a timestamp at least 2 greater than the timestamp of any other
    value; otherwise it adopts the value with the highest timestamp and
    re-invokes with that timestamp plus one.

    All communication goes through the long-lived snapshot — the consensus
    layer never touches a register directly — so its steps cannot interfere
    with the snapshot protocol.  A processor running solo first adopts the
    leading value and then raises its timestamp twice, so the algorithm is
    obstruction-free; agreement holds in every execution
    ({!Tasks.Consensus_task} checks it). *)

open Repro_util

(** View elements: [(value, timestamp)] pairs. *)
module Pref = struct
  type t = int * int

  let compare (v1, t1) (v2, t2) =
    match Int.compare v1 v2 with 0 -> Int.compare t1 t2 | c -> c
end

module Pset = Sorted_set.Make (Pref)

module Pref_pp = struct
  let pp_elt ppf ((v, t) : Pref.t) = Fmt.pf ppf "%d@%d" v t
end

module Snap = Long_lived_snapshot.Make (Pset) (Pref_pp)

type cfg = Snap.cfg = { n : int; m : int }

let cfg = Snap.cfg
let standard ~n = Snap.standard ~n

type value = Snap.value
type input = int
type output = int

type local = {
  input : int;
  pref : int;
  ts : int;
  decided : int option;
  rounds : int;  (** completed snapshot invocations, for the benchmarks *)
  snap : Snap.local;
}

let name = "consensus(fig5)"
let processors = Snap.processors
let registers = Snap.registers
let register_init = Snap.register_init

let init c input =
  { input; pref = input; ts = 0; decided = None; rounds = 0; snap = Snap.init c (input, 0) }

let halted c l =
  match l.decided with Some _ -> true | None -> Snap.halted c l.snap

let next c l =
  match l.decided with None -> Snap.next c l.snap | Some _ -> None

let apply_write c l = { l with snap = Snap.apply_write c l.snap }

(** Highest timestamp carried by each value in a snapshot, as an
    association list sorted by value. *)
let leaders view =
  Pset.fold
    (fun (v, t) acc ->
      match List.assoc_opt v acc with
      | Some t' when t' >= t -> acc
      | _ -> (v, t) :: List.remove_assoc v acc)
    view []

(** The decision rule of Figure 5 applied to a completed snapshot: either
    [`Decide v] or [`Adopt (pref, ts)] for the next invocation.

    A value absent from the snapshot counts as having timestamp 0 — in
    Chandra's racing formulation both counters exist from the start at 0,
    and a decision requires being two {e ahead}, not merely unopposed.
    This reading is load-bearing: treating absent rivals as [-oo] (decide
    the moment your snapshot contains no other value) is falsified by our
    bounded model checker with a 60-step two-processor disagreement — a
    covering pattern keeps one processor's snapshot at its own singleton
    while the other pumps its timestamp in a parallel universe; see
    test_consensus.ml and EXPERIMENTS.md.  Requiring a lead of 2 over the
    implicit 0 forces a solo decider to raise its timestamp to 2 first,
    and the containment of snapshot outputs then prevents the split. *)
let resolve view =
  let l = leaders view in
  let v1, t1 =
    List.fold_left
      (fun (bv, bt) (v, t) ->
        if t > bt || (t = bt && v < bv) then (v, t) else (bv, bt))
      (max_int, min_int) l
  in
  let rival_ts =
    List.fold_left (fun acc (v, t) -> if v = v1 then acc else Int.max acc t) 0 l
  in
  if t1 >= rival_ts + 2 then `Decide v1 else `Adopt (v1, t1 + 1)

let apply_read c l ~reg v =
  let snap = Snap.apply_read c l.snap ~reg v in
  if not (Snap.ready c snap) then { l with snap }
  else
    (* The invocation just completed: consume the snapshot and either
       decide or immediately re-invoke, all within this atomic step (local
       computation folds into the adjacent read, as in PlusCal). *)
    let l = { l with rounds = l.rounds + 1 } in
    match resolve (Snap.output_view snap) with
    | `Decide value -> { l with decided = Some value; snap }
    | `Adopt (pref, ts) ->
        { l with pref; ts; snap = Snap.invoke c snap (pref, ts) }

let output _ l = l.decided

(* Flat twin.  A [(value, timestamp)] pair packs into one word,
   [(v lsl 31) lor t], which preserves {!Pref.compare}'s lexicographic
   order for pairs in [0, 2^31); a view is then a sorted row of packed
   words in a capacity-bounded register file, so scans compare and merge
   rows without allocating.  Capacity is the largest initial view plus
   slack; a merge or adoption that would overflow it — or mint a
   timestamp past the packing window — raises
   {!Anonmem.Protocol.Fallback} before mutating anything and the boxed
   path takes over, so the machine is {e not} total.  Merged rows are
   staged in a scratch row and committed only after the overflow check.
   The embedded long-lived snapshot's scan bookkeeping ([all_own],
   [min_level], position-encoded phase) mirrors {!Snapshot.flat}; on a
   completed invocation the Figure-5 decision rule runs directly over
   the sorted row — a leader's run of packed pairs is contiguous and its
   last element carries the maximal timestamp. *)
let flat (c : cfg) ~(phys : int array) ~(inputs : int array)
    ~(registers : value array) ~(locals : local array) :
    value Anonmem.Protocol.flat option =
  let n = c.n and m = c.m in
  let module Bits = Repro_util.Bits in
  let vbits = 31 in
  let wmax = 1 lsl vbits in
  let in_window x = 0 <= x && x < wmax in
  let pair_ok (v, t) = in_window v && in_window t in
  let view_ok vs = Pset.for_all pair_ok vs in
  let local_ok l =
    in_window l.pref && in_window l.ts
    && (match l.decided with None -> true | Some d -> d >= 0)
    && view_ok l.snap.Snap.Core.view
  in
  if n > Bits.max_width || m > Bits.max_width
     || not (Array.for_all in_window inputs)
     || not
          (Array.for_all (fun (v : value) -> view_ok v.Snap.Core.view) registers)
     || not (Array.for_all local_ok locals)
  then None
  else begin
    let pack (v, t) = (v lsl vbits) lor t in
    let unpack w = (w lsr vbits, w land (wmax - 1)) in
    let cap =
      let mx = ref 1 in
      Array.iter
        (fun (v : value) -> mx := Int.max !mx (Pset.cardinal v.Snap.Core.view))
        registers;
      Array.iter
        (fun l -> mx := Int.max !mx (Pset.cardinal l.snap.Snap.Core.view))
        locals;
      !mx + 128
    in
    (* Encode a view into row [base] (returning its length); decode back. *)
    let enc_view vs arr base =
      let i = ref 0 in
      Pset.iter
        (fun pr ->
          arr.(base + !i) <- pack pr;
          incr i)
        vs;
      !i
    in
    let dec_view arr base len =
      Pset.of_list (List.init len (fun i -> unpack arr.(base + i)))
    in
    let rv_len = Array.make m 0 in
    let rv = Array.make (m * cap) 0 in
    let rlevel = Array.make m 0 in
    Array.iteri
      (fun r (v : value) ->
        rv_len.(r) <- enc_view v.Snap.Core.view rv (r * cap);
        rlevel.(r) <- v.Snap.Core.level)
      registers;
    let pv_len = Array.copy rv_len in
    let pv = Array.copy rv in
    let plevel = Array.copy rlevel in
    let dirty = ref 0 in
    let linput = Array.map (fun l -> l.input) locals in
    let lpref = Array.map (fun l -> l.pref) locals in
    let lts = Array.map (fun l -> l.ts) locals in
    let ldec =
      Array.map
        (fun l -> match l.decided with None -> -1 | Some d -> d)
        locals
    in
    let lrounds = Array.map (fun l -> l.rounds) locals in
    let lv_len = Array.make n 0 in
    let lv = Array.make (n * cap) 0 in
    let llevel = Array.map (fun l -> l.snap.Snap.Core.level) locals in
    let lnext = Array.map (fun l -> l.snap.Snap.Core.next_write) locals in
    let lpos = Array.make n (-1) in
    let lall = Array.make n 0 in
    let lmin = Array.make n 0 in
    Array.iteri
      (fun p l ->
        lv_len.(p) <- enc_view l.snap.Snap.Core.view lv (p * cap);
        match l.snap.Snap.Core.phase with
        | Snap.Core.Writing -> lpos.(p) <- -1
        | Snap.Core.Scanning { pos; all_own; min_level } ->
            lpos.(p) <- pos;
            lall.(p) <- (if all_own then 1 else 0);
            lmin.(p) <- min_level)
      locals;
    let scratch = Array.make (2 * cap) 0 in
    let snap_halted p = lpos.(p) < 0 && llevel.(p) >= n in
    let halted p = ldec.(p) >= 0 || snap_halted p in
    let peek p =
      if halted p then -1
      else if lpos.(p) < 0 then (phys.((p * m) + lnext.(p)) lsl 1) lor 1
      else phys.((p * m) + lpos.(p)) lsl 1
    in
    (* The leader of the sorted row at [lbase]: maximal timestamp, ties
       to the smaller value.  Each value's packed run is contiguous and
       ends at its maximal timestamp. *)
    let leader lbase len =
      let v1 = ref max_int and t1 = ref min_int in
      let i = ref 0 in
      while !i < len do
        let v = lv.(lbase + !i) lsr vbits in
        let j = ref !i in
        while !j + 1 < len && lv.(lbase + !j + 1) lsr vbits = v do
          incr j
        done;
        let t = lv.(lbase + !j) land (wmax - 1) in
        if t > !t1 || (t = !t1 && v < !v1) then begin
          v1 := v;
          t1 := t
        end;
        i := !j + 1
      done;
      (!v1, !t1)
    in
    let rival_ts lbase len ~not_v =
      let best = ref 0 in
      let i = ref 0 in
      while !i < len do
        let v = lv.(lbase + !i) lsr vbits in
        let j = ref !i in
        while !j + 1 < len && lv.(lbase + !j + 1) lsr vbits = v do
          incr j
        done;
        let t = lv.(lbase + !j) land (wmax - 1) in
        if v <> not_v && t > !best then best := t;
        i := !j + 1
      done;
      !best
    in
    (* A scan read of register [r] out of the given (current or stale)
       register file view; every Fallback fires before any mutation. *)
    let do_read p vlen varr vlevel r =
      let pos = lpos.(p) in
      let lbase = p * cap and rbase = r * cap in
      let len = lv_len.(p) in
      let equal =
        vlen = len
        &&
        let i = ref 0 in
        while !i < len && varr.(rbase + !i) = lv.(lbase + !i) do
          incr i
        done;
        !i >= len
      in
      let all = lall.(p) = 1 && equal in
      let mlen =
        if all then len
        else begin
          let i = ref 0 and j = ref 0 and k = ref 0 in
          while !i < len && !j < vlen do
            let a = lv.(lbase + !i) and b = varr.(rbase + !j) in
            if a < b then begin
              scratch.(!k) <- a;
              incr i
            end
            else if a > b then begin
              scratch.(!k) <- b;
              incr j
            end
            else begin
              scratch.(!k) <- a;
              incr i;
              incr j
            end;
            incr k
          done;
          while !i < len do
            scratch.(!k) <- lv.(lbase + !i);
            incr i;
            incr k
          done;
          while !j < vlen do
            scratch.(!k) <- varr.(rbase + !j);
            incr j;
            incr k
          done;
          !k
        end
      in
      if mlen > cap then raise Anonmem.Protocol.Fallback;
      if pos + 1 < m then begin
        if all then lmin.(p) <- Int.min lmin.(p) vlevel
        else begin
          Array.blit scratch 0 lv lbase mlen;
          lv_len.(p) <- mlen;
          lall.(p) <- 0;
          lmin.(p) <- 0
        end;
        lpos.(p) <- pos + 1
      end
      else begin
        let minl = if all then Int.min lmin.(p) vlevel else 0 in
        let level = if all then Int.min (minl + 1) n else 0 in
        if level >= n then begin
          (* The invocation just completed; [all] held throughout, so the
             view is unchanged — resolve directly over the current row. *)
          if len = 0 then raise Anonmem.Protocol.Fallback;
          let v1, t1 = leader lbase len in
          let rival = rival_ts lbase len ~not_v:v1 in
          if t1 >= rival + 2 then begin
            lrounds.(p) <- lrounds.(p) + 1;
            ldec.(p) <- v1;
            llevel.(p) <- level;
            lpos.(p) <- -1
          end
          else begin
            let ts' = t1 + 1 in
            if ts' >= wmax then raise Anonmem.Protocol.Fallback;
            let w = (v1 lsl vbits) lor ts' in
            let lo = ref 0 and hi = ref len in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if lv.(lbase + mid) < w then lo := mid + 1 else hi := mid
            done;
            let present = !lo < len && lv.(lbase + !lo) = w in
            if (not present) && len = cap then
              raise Anonmem.Protocol.Fallback;
            lrounds.(p) <- lrounds.(p) + 1;
            lpref.(p) <- v1;
            lts.(p) <- ts';
            if not present then begin
              Array.blit lv (lbase + !lo) lv (lbase + !lo + 1) (len - !lo);
              lv.(lbase + !lo) <- w;
              lv_len.(p) <- len + 1
            end;
            llevel.(p) <- 0;
            lpos.(p) <- -1
          end
        end
        else begin
          if not all then begin
            Array.blit scratch 0 lv lbase mlen;
            lv_len.(p) <- mlen
          end;
          llevel.(p) <- level;
          lpos.(p) <- -1
        end
      end
    in
    let advance_write p =
      lnext.(p) <- (lnext.(p) + 1) mod m;
      lpos.(p) <- 0;
      lall.(p) <- 1;
      lmin.(p) <- n
    in
    let step p =
      if lpos.(p) < 0 then begin
        let r = phys.((p * m) + lnext.(p)) in
        let rbase = r * cap in
        pv_len.(r) <- rv_len.(r);
        Array.blit rv rbase pv rbase rv_len.(r);
        plevel.(r) <- rlevel.(r);
        let len = lv_len.(p) in
        Array.blit lv (p * cap) rv rbase len;
        rv_len.(r) <- len;
        rlevel.(r) <- llevel.(p);
        dirty := !dirty lor (1 lsl r);
        advance_write p
      end
      else begin
        let r = phys.((p * m) + lpos.(p)) in
        do_read p rv_len.(r) rv rlevel.(r) r
      end
    in
    let step_stale p =
      let r = phys.((p * m) + lpos.(p)) in
      do_read p pv_len.(r) pv plevel.(r) r
    in
    let reset p =
      linput.(p) <- inputs.(p);
      lpref.(p) <- inputs.(p);
      lts.(p) <- 0;
      ldec.(p) <- -1;
      lrounds.(p) <- 0;
      lv.(p * cap) <- pack (inputs.(p), 0);
      lv_len.(p) <- 1;
      llevel.(p) <- 0;
      lnext.(p) <- 0;
      lpos.(p) <- -1
    in
    let dec_value r =
      { Snap.Core.view = dec_view rv (r * cap) rv_len.(r); level = rlevel.(r) }
    in
    let value r =
      if !dirty land (1 lsl r) <> 0 then dec_value r else registers.(r)
    in
    let sync () =
      List.iter (fun r -> registers.(r) <- dec_value r) (Bits.to_list !dirty);
      for p = 0 to n - 1 do
        let phase =
          if lpos.(p) < 0 then Snap.Core.Writing
          else
            Snap.Core.Scanning
              { pos = lpos.(p); all_own = lall.(p) = 1; min_level = lmin.(p) }
        in
        let snap =
          {
            Snap.Core.view = dec_view lv (p * cap) lv_len.(p);
            level = llevel.(p);
            next_write = lnext.(p);
            phase;
          }
        in
        locals.(p) <-
          {
            input = linput.(p);
            pref = lpref.(p);
            ts = lts.(p);
            decided = (if ldec.(p) < 0 then None else Some ldec.(p));
            rounds = lrounds.(p);
            snap;
          }
      done
    in
    Some
      {
        Anonmem.Protocol.total = false;
        peek;
        step;
        step_omit = advance_write;
        step_stale;
        reset;
        halted;
        value;
        sync;
      }
  end
let rounds_of_local l = l.rounds
let pp_value = Snap.pp_value

let pp_local c ppf l =
  Fmt.pf ppf "{pref=%d ts=%d %a snap=%a}" l.pref l.ts
    (Fmt.option ~none:(Fmt.any "undecided") (fun ppf d ->
         Fmt.pf ppf "decided=%d" d))
    l.decided (Snap.pp_local c) l.snap

let pp_output _ = Fmt.int
