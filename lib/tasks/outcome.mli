(** Execution outcomes and output samples (Section 3.2.1 of the paper).

    An outcome records, for one finished execution, each processor's input
    (its group identifier), whether it participated (took at least one
    step), and its output if it produced one.  Group solvability
    (Definition 3.4) quantifies over {e output samples}: functions mapping
    each participating group to the output of one of its members;
    {!samples} enumerates them all and {!for_all_samples} validates each
    against a task specification. *)

type 'o t = {
  inputs : int array;  (** [inputs.(p)] is processor [p]'s group identifier *)
  participated : bool array;
  outputs : 'o option array;
}

val make :
  ?participated:bool array ->
  inputs:int array ->
  outputs:'o option array ->
  unit ->
  'o t
(** Copies its array arguments.  A processor with an output is forced to
    count as participating.  [participated] defaults to all-true.  Raises
    [Invalid_argument] on length mismatches. *)

val processors : 'o t -> int

val participating_groups : 'o t -> Repro_util.Iset.t
(** Groups with at least one participating member. *)

val group_of : 'o t -> int -> int
val members : 'o t -> int -> int list

val terminated : 'o t -> 'o list
(** All outputs, in processor order. *)

val samples : 'o t -> (int * 'o) list Seq.t
(** All output samples, lazily: each is an association list from group
    identifier to the output of one member, covering every group that
    produced an output. *)

val sample_count : 'o t -> int
(** Product of the per-group output multiplicities. *)

val for_all_samples :
  'o t ->
  check:(groups:Repro_util.Iset.t -> (int * 'o) list -> (unit, 'e) result) ->
  (unit, 'e) result
(** Validate every output sample; first failure wins. *)
