(** The adaptive renaming task (Definition 3.3) with parameter
    [f(M) = M(M+1)/2], and its group version: within an output sample all
    names are distinct and fall in [1 .. M(M+1)/2] for [M] participating
    groups.  Same-group name sharing is legal; cross-group collisions
    never happen with the Figure-4 algorithm (Section 6), which {!check}
    verifies over all outputs. *)

type output = int

val bound : groups:int -> int
val check_range : output Outcome.t -> (unit, Task_failure.t) result
val check_sample :
  groups:Repro_util.Iset.t -> (int * output) list -> (unit, Task_failure.t) result

val check_group_solution : output Outcome.t -> (unit, Task_failure.t) result
val check : output Outcome.t -> (unit, Task_failure.t) result
(** Range, cross-group distinctness, and group solvability. *)
