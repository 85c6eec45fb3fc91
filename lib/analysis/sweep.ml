(** Parameter sweeps for the experiment harness: step-count distributions
    of the snapshot algorithm as the number of processors grows and as
    the scheduler changes.  The paper reports no measurements (it is a
    brief announcement), so these sweeps characterize the implementation;
    the shapes — growth with [N], scheduler sensitivity — are recorded in
    EXPERIMENTS.md. *)

open Repro_util
module Scheduler = Anonmem.Scheduler

type row = { param : int; stats : Stats.summary }

(** [run ~params ~seeds f] collects [f param seed] over [seeds] runs per
    parameter value, dropping [None]s (runs that hit a budget). *)
let run ~params ~seeds f =
  List.map
    (fun param ->
      let samples = List.filter_map (f param) (List.init seeds Fun.id) in
      match Stats.summarize samples with
      | Some stats -> { param; stats }
      | None ->
          {
            param;
            stats =
              {
                Stats.count = 0;
                min = 0;
                max = 0;
                mean = nan;
                median = 0;
                p90 = 0;
                stddev = nan;
              };
          })
    params

let to_table ~param_name rows =
  let t =
    Text_table.create
      ~headers:[ param_name; "runs"; "min"; "median"; "p90"; "max"; "mean" ]
  in
  List.iter
    (fun { param; stats } ->
      Text_table.add_row t
        [
          string_of_int param;
          string_of_int stats.Stats.count;
          string_of_int stats.Stats.min;
          string_of_int stats.Stats.median;
          string_of_int stats.Stats.p90;
          string_of_int stats.Stats.max;
          Printf.sprintf "%.0f" stats.Stats.mean;
        ])
    rows;
  Text_table.render t

(* --- ready-made sweeps ------------------------------------------------------ *)

module Snap_sys = Anonmem.System.Make (Algorithms.Snapshot)

type sched_kind = Round_robin | Random_fair | Solo

let sched_name = function
  | Round_robin -> "round-robin"
  | Random_fair -> "random"
  | Solo -> "solo"

let make_sched kind rng =
  match kind with
  | Round_robin -> Scheduler.round_robin ()
  | Random_fair -> Scheduler.random (Rng.split rng)
  | Solo -> Scheduler.solo 0

(** Steps until every processor has output its snapshot. *)
let snapshot_steps ?(seeds = 21) ?(sched = Random_fair) ~ns () =
  run ~params:ns ~seeds (fun n seed ->
      let rng = Rng.create ~seed:(seed + (1000 * n)) in
      let cfg = Algorithms.Snapshot.standard ~n in
      let wiring = Anonmem.Wiring.random rng ~n ~m:n in
      let inputs = Array.init n (fun i -> i + 1) in
      let state = Snap_sys.init ~cfg ~wiring ~inputs in
      match Snap_sys.run ~max_steps:20_000_000 ~sched:(make_sched sched rng) state with
      | Snap_sys.All_halted, steps -> Some steps
      | Snap_sys.Scheduler_done, steps when sched = Solo -> Some steps
      | _ -> None)

(** Steps until all snapshots complete, per scheduler — the X1 ablation. *)
let scheduler_sensitivity ?(seeds = 15) ~n () =
  List.map
    (fun kind ->
      let rows = snapshot_steps ~seeds ~sched:kind ~ns:[ n ] () in
      (sched_name kind, (List.hd rows).stats))
    [ Round_robin; Random_fair ]
