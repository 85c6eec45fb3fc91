(* The shared wiring sweep; see the interface for the contract. *)

type 'acc section = {
  name : string;
  to_ints : 'acc -> int array;
  of_ints : int array -> 'acc;
}

type ('r, 'e) check =
  resume:bool ->
  ckpt_extra:(string * Bytes.t) list ->
  Anonmem.Wiring.t ->
  ('r, 'e) result

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt_checkpoint s)) fmt

(* The sweep position stored in a checkpoint: (wiring index, accumulator
   over the wirings before it). *)
let read_position s ~path ~init ~wirings =
  let a =
    Checkpoint.find_ints ~who:"Wiring_sweep"
      ~count:(1 + Array.length (s.to_ints init))
      s.name (Checkpoint.load ~path)
  in
  if a.(0) < 0 || a.(0) >= wirings then
    corrupt "%s index outside the wiring list" s.name;
  (a.(0), s.of_ints (Array.sub a 1 (Array.length a - 1)))

(* One worker: the fold in order, with the accumulator at hand for each
   wiring's checkpoint section and for a resume. *)
let sequential ?governor ?section ?ckpt ~resume ?on_wiring ~init ~add
    wiring_arr make_check =
  let check = make_check ~governor in
  let start, acc0 =
    match (section, ckpt) with
    | Some s, Some { Checkpoint.path; _ } when resume && Sys.file_exists path
      ->
        let idx, acc =
          read_position s ~path ~init ~wirings:(Array.length wiring_arr)
        in
        (Some idx, acc)
    | _ -> (None, init)
  in
  let rec go idx acc =
    if idx >= Array.length wiring_arr then Ok acc
    else
      let wiring = wiring_arr.(idx) in
      let ckpt_extra =
        match (section, ckpt) with
        | Some s, Some _ ->
            [
              ( s.name,
                Checkpoint.bytes_of_ints (Array.append [| idx |] (s.to_ints acc))
              );
            ]
        | _ -> []
      in
      match check ~resume:(start = Some idx) ~ckpt_extra wiring with
      | Error e -> Error (acc, e)
      | Ok r ->
          let acc = add acc r in
          Option.iter (fun f -> f wiring acc) on_wiring;
          go (idx + 1) acc
  in
  go (Option.value start ~default:0) acc0

type ('r, 'e) outcome = Checked of ('r, 'e) result | Raised of exn

(* [workers] domains claim wiring indices in order from one counter and
   record each outcome in its slot.  Once index [i] has failed, no index
   above [i] is claimed, so every index below the lowest failure holds
   an outcome at the barrier, and the fold in order ends where the
   sequential one would. *)
let pooled ~workers ?governor ?on_wiring ~init ~add wiring_arr make_check =
  let nw = Array.length wiring_arr in
  (* Each slot is written once, by its claimer, and read after the
     barrier. *)
  let outcomes = Array.make nw None in
  let next = Atomic.make 0 in
  let first_failure = Atomic.make max_int in
  let rec lower i =
    let cur = Atomic.get first_failure in
    if i < cur && not (Atomic.compare_and_set first_failure cur i) then
      lower i
  in
  let views = Array.init workers (fun _ -> Option.map Governor.view governor) in
  let worker w =
    let check = make_check ~governor:views.(w) in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < nw && i < Atomic.get first_failure then begin
        let outcome =
          match check ~resume:false ~ckpt_extra:[] wiring_arr.(i) with
          | r -> Checked r
          | exception e -> Raised e
        in
        outcomes.(i) <- Some outcome;
        (match outcome with Checked (Ok _) -> () | _ -> lower i);
        claim ()
      end
    in
    claim ()
  in
  Repro_util.Domain_pool.parallel ~domains:workers worker;
  let rec fold i acc =
    if i >= nw then Ok acc
    else
      match outcomes.(i) with
      | Some (Checked (Ok r)) ->
          let acc = add acc r in
          Option.iter (fun f -> f wiring_arr.(i) acc) on_wiring;
          fold (i + 1) acc
      | Some (Checked (Error e)) -> Error (acc, e)
      | Some (Raised e) -> raise e
      | None -> assert false
  in
  fold 0 init

let run ?(domains = 1) ?governor ?wirings ?section ?ckpt ?(resume = false)
    ?on_wiring ~n ~m ~init ~add make_check =
  let wiring_arr =
    Array.of_list
      (match wirings with
      | Some ws -> ws
      | None -> Anonmem.Wiring.enumerate ~n ~m ~fix_first:true)
  in
  let ordered =
    ckpt <> None
    || match governor with Some g -> Governor.has_quota g | None -> false
  in
  let workers = if ordered then 1 else min domains (Array.length wiring_arr) in
  if workers <= 1 then
    sequential ?governor ?section ?ckpt ~resume ?on_wiring ~init ~add
      wiring_arr make_check
  else pooled ~workers ?governor ?on_wiring ~init ~add wiring_arr make_check
