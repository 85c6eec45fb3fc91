(* Resource governor for long verification runs: wall-clock, heap and
   tick-quota budgets plus an externally shared interrupt flag, polled
   by the engines once per unit of work.  A tripped governor is sticky —
   once [tick] reports a reason, every later [tick] reports the same
   one, so an engine that checks the governor at several points in its
   loop cannot see the budget flicker back under the line. *)

type reason = Wall_clock | Heap | Quota | Interrupted

let reason_to_string = function
  | Wall_clock -> "wall-clock"
  | Heap -> "heap"
  | Quota -> "quota"
  | Interrupted -> "interrupted"

let reason_of_string = function
  | "wall-clock" -> Some Wall_clock
  | "heap" -> Some Heap
  | "quota" -> Some Quota
  | "interrupted" -> Some Interrupted
  | _ -> None

let pp_reason ppf r = Fmt.string ppf (reason_to_string r)

(* Everything but [ticks] and [stop] is shared by a governor and its
   {!view}s, which tick in other domains: the flags and the trip cell are
   atomic, the rest immutable.  [ticks] belongs to the one domain that
   ticks it; [stop] to one view. *)
type t = {
  wall_seconds : float option;
  quota : int option;
  started : float;
  interrupted_flag : bool Atomic.t;
  heap_hit : bool Atomic.t; (* set from the Gc alarm, read on tick *)
  alarm : Gc.alarm option;
  trip : reason option Atomic.t; (* the first reason any view tripped on *)
  stop : unit -> bool;
  mutable ticks : int;
}

let create ?wall_seconds ?heap_words ?quota ?interrupted_flag () =
  let interrupted_flag =
    match interrupted_flag with Some f -> f | None -> Atomic.make false
  in
  let heap_hit = Atomic.make false in
  let alarm =
    match heap_words with
    | None -> None
    | Some budget ->
        (* The alarm runs at the end of each major collection — the
           moment the live-word figure is fresh and meaningful. *)
        Some
          (Gc.create_alarm (fun () ->
               if (Gc.quick_stat ()).heap_words > budget then
                 Atomic.set heap_hit true))
  in
  {
    wall_seconds;
    quota;
    started = Unix.gettimeofday ();
    interrupted_flag;
    heap_hit;
    alarm;
    trip = Atomic.make None;
    stop = Fun.const false;
    ticks = 0;
  }

let view t = { t with alarm = None; ticks = 0; stop = Fun.const false }
let stoppable t stop = { (view t) with stop }
let has_quota t = t.quota <> None
let elapsed_s t = Unix.gettimeofday () -. t.started
let interrupt t = Atomic.set t.interrupted_flag true
let interrupted t = Atomic.get t.interrupted_flag
let tripped t = Atomic.get t.trip

let dispose t = match t.alarm with Some a -> Gc.delete_alarm a | None -> ()

(* The wall clock is a syscall, so it is only consulted every 64 ticks —
   but on tick 1 rather than tick 64, so a zero-second budget trips on
   the first state rather than 63 states in.  The first trip of any view
   wins the cell; every view reports it from then on.  A stopped view
   reports [Interrupted] to itself alone. *)
let tick t =
  match Atomic.get t.trip with
  | Some _ as r -> r
  | None when t.stop () -> Some Interrupted
  | None ->
      t.ticks <- t.ticks + 1;
      let trip r =
        ignore (Atomic.compare_and_set t.trip None (Some r));
        Atomic.get t.trip
      in
      if Atomic.get t.interrupted_flag then trip Interrupted
      else if Atomic.get t.heap_hit then trip Heap
      else if
        match t.quota with Some q -> t.ticks > q | None -> false
      then trip Quota
      else if
        t.ticks land 63 = 1
        &&
        match t.wall_seconds with
        | Some budget -> elapsed_s t >= budget
        | None -> false
      then trip Wall_clock
      else None
