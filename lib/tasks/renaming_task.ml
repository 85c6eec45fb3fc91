(** The adaptive renaming task (Definition 3.3) with parameter
    [f(M) = M(M+1)/2], and its group version.

    Group version (Section 3.2): within an output sample (one processor per
    group) all names are distinct and, with [M] participating groups, fall
    in [1 .. M(M+1)/2].  Processors of the same group may share a name —
    the paper's resolution of the renaming conundrum — but processors of
    different groups never collide.  [check_cross_group] validates the
    latter directly over all outputs, which is what Section 6 proves of the
    Figure-4 algorithm. *)

open Repro_util

type output = int

let bound ~groups = groups * (groups + 1) / 2

let check_range (t : output Outcome.t) =
  let m = Iset.cardinal (Outcome.participating_groups t) in
  let b = bound ~groups:m in
  let n = Outcome.processors t in
  let bad =
    List.find_opt
      (fun p ->
        match t.Outcome.outputs.(p) with
        | Some name -> name < 1 || name > b
        | None -> false)
      (List.init n Fun.id)
  in
  match bad with
  | Some p ->
      let name = Option.get t.Outcome.outputs.(p) in
      Task_failure.failf ~processors:[ p ]
        ~groups:[ Outcome.group_of t p ]
        Task_failure.Name_range
        "p%d took name %d outside adaptive range 1..%d (%d groups)" (p + 1)
        name b m
  | None -> Ok ()

let check_sample ~groups:_ sample =
  let rec go = function
    | [] -> Ok ()
    | (g1, n1) :: rest -> (
        match List.find_opt (fun (_, n2) -> n1 = n2) rest with
        | Some (g2, _) ->
            Task_failure.failf ~groups:[ g1; g2 ] Task_failure.Name_uniqueness
              "groups %d and %d share name %d" g1 g2 n1
        | None -> go rest)
  in
  go sample

let check_group_solution t =
  match check_range t with
  | Error _ as e -> e
  | Ok () -> Outcome.for_all_samples t ~check:check_sample

(** Processors of different groups never share a name (all outputs, not
    just samples). *)
let check_cross_group (t : output Outcome.t) =
  let n = Outcome.processors t in
  let rec go p q =
    if p >= n then Ok ()
    else if q >= n then go (p + 1) (p + 2)
    else
      match (t.Outcome.outputs.(p), t.Outcome.outputs.(q)) with
      | Some np, Some nq
        when np = nq && Outcome.group_of t p <> Outcome.group_of t q ->
          Task_failure.failf ~processors:[ p; q ]
            ~groups:[ Outcome.group_of t p; Outcome.group_of t q ]
            Task_failure.Name_uniqueness
            "p%d (group %d) and p%d (group %d) share name %d" (p + 1)
            (Outcome.group_of t p) (q + 1) (Outcome.group_of t q) np
      | _ -> go p (q + 1)
  in
  go 0 1

let check t =
  match check_range t with
  | Error _ as e -> e
  | Ok () -> (
      match check_cross_group t with
      | Error _ as e -> e
      | Ok () -> check_group_solution t)
