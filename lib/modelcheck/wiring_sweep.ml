(* The shared wiring sweep; see the interface for the contract. *)

type 'acc section = {
  name : string;
  to_ints : 'acc -> int array;
  of_ints : int array -> 'acc;
}

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt_checkpoint s)) fmt

(* The sweep position stored in a checkpoint: (wiring index, accumulator
   over the wirings before it). *)
let read_position s ~path ~init ~wirings =
  let a =
    Checkpoint.ints_of_bytes (Checkpoint.find s.name (Checkpoint.load ~path))
  in
  if Array.length a <> 1 + Array.length (s.to_ints init) then
    corrupt "%s section of wrong length" s.name;
  if a.(0) < 0 || a.(0) >= wirings then
    corrupt "%s index outside the wiring list" s.name;
  (a.(0), s.of_ints (Array.sub a 1 (Array.length a - 1)))

let run ?wirings ?section ?ckpt ?(resume = false) ?on_wiring ~n ~m ~init
    check =
  let wiring_arr =
    Array.of_list
      (match wirings with
      | Some ws -> ws
      | None -> Anonmem.Wiring.enumerate ~n ~m ~fix_first:true)
  in
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
      match check ~resume:(start = Some idx) ~ckpt_extra wiring acc with
      | Error _ as e -> e
      | Ok acc ->
          Option.iter (fun f -> f wiring acc) on_wiring;
          go (idx + 1) acc
  in
  go (Option.value start ~default:0) acc0
