(** Serializable fault plans — the single representation of injected
    faults shared by the simulator ({!System.Make.run}), the crash-prone
    scheduler ({!Scheduler.crash_faults}), the multicore runtime and the
    fuzzer.

    A plan is a finite list of timed fault events.  Times are 0-based and
    layer-interpreted: the simulator reads [at] as the global step index,
    and the multicore runtime as the processor's own operation count
    (there is no global clock across domains).  The model checker takes
    no plans: a crash-stop changes no local and no register, it only
    removes moves, so the fault-free exhaustive search already reaches
    every state of every crash-stop plan.  The other fault kinds change
    state and are the fuzzer's.  Processor and register indices are
    0-based in the API and 1-based in the concrete syntax, like everywhere
    else in the repository. *)

type event =
  | Crash_stop of { p : int; at : int }
      (** processor [p] takes no step at or after time [at] *)
  | Crash_recover of { p : int; at : int }
      (** at time [at], [p]'s local state is reset to [P.init] on its
          original input — the anonymity-honest reading of recovery: the
          restarted processor cannot even know it is the same one *)
  | Omit_write of { p : int; at : int }
      (** armed at [at]: [p]'s next write is dropped (the register keeps
          its old value) while [p]'s local state advances as if it wrote *)
  | Stale_read of { p : int; at : int }
      (** armed at [at]: [p]'s next read returns the register's {e
          previous} value — the regular-register (non-atomic) degradation *)
  | Stuck_register of { reg : int; at : int }
      (** physical register [reg] ignores every write at or after [at] *)

type plan = event list

val normalize : plan -> plan
(** Sort by (time, kind, index) and drop duplicates — a canonical form, so
    shrinking and equality behave deterministically. *)

val is_crash_free : plan -> bool

(** {2 Compiled views used by the interpreters} *)

val crash_stops : ?n:int -> plan -> int option array
(** [crash_stops ~n plan] is the earliest [Crash_stop] time per processor,
    sized [n] (default: one past the largest processor index in the plan).
    This is exactly the [crash_at] array consumed by {!Scheduler.crash}. *)

val crash_order : int option array -> (int * int) array
(** [(at, p)] for every [Some at] of a {!crash_stops} array, sorted by
    time, then processor: the order in which the crashes fire. *)

val recoveries : plan -> (int * int) list
(** [(at, p)] pairs of every [Crash_recover], sorted by time. *)

val omit_arms : n:int -> plan -> int list array
(** Per-processor sorted arming times of [Omit_write] events. *)

val stale_arms : n:int -> plan -> int list array
(** Per-processor sorted arming times of [Stale_read] events. *)

val stuck_times : m:int -> plan -> int option array
(** Earliest [Stuck_register] time per physical register, sized [m].
    Events naming registers [>= m] are ignored (shrinking robustness). *)

(** {2 Shrinking support} *)

val drop_processor : p:int -> plan -> plan
(** Remove every event of processor [p] and shift higher indices down by
    one — mirrors the harness's drop-a-processor shrink step. *)

val drop_register : reg:int -> plan -> plan
(** Remove [Stuck_register] events of [reg], shifting higher registers. *)

(** {2 Concrete syntax}

    [crash:p2@10; recover:p3@8; omit:p1@4; stale:p1@6; stuck:r2@0] —
    1-based processors/registers, 0-based times, events separated by [;]
    (the [p]/[r] prefix is optional on input). *)

val pp_event : event Fmt.t
val pp : plan Fmt.t
val to_string : plan -> string

val of_string : string -> plan
(** Raises [Invalid_argument] on syntax errors. *)
