(* Section-framed checkpoint container for the durable-run layer.  See
   checkpoint.mli for the format; the invariants that matter here:

   - [save] is atomic: the image is written to [path ^ ".tmp"], fsynced,
     and renamed over [path], so a crash at any instruction leaves either
     the previous checkpoint or the new one — never a torn file.
   - every payload carries a 64-bit FNV checksum, validated on [load];
     any mismatch, truncation or framing error raises
     [Corrupt_checkpoint] — a structured error, never a crash and never
     a silently wrong answer.
   - [set_torn_write] is the chaos hook: the next [write] writes only a
     prefix of the tmp file and raises [Simulated_crash] *before* the
     rename, exactly the failure mode a power cut produces.
   - there is one framing walk, [frame]: a file header, then per
     section its header and payload, handed to a sink piece by piece.
     [to_bytes] collects the pieces; [write] streams them straight to
     the tmp file, byte payloads as they are and int-array payloads
     through one scratch buffer, so a save never copies its payloads
     into a second image. *)

exception Corrupt_checkpoint of string
exception Simulated_crash

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt_checkpoint s)) fmt

(* The last byte is the format version.  Bump it whenever an engine's
   section layout or context string changes: an older image then fails
   with a version error instead of a misleading context mismatch. *)
let magic_family = "ANONCKP"
let magic = magic_family ^ "3"

(* 64-bit FNV-1a over the 32-bit little-endian words of a byte range,
   then over its 0-7 tail bytes, folded into OCaml's nonnegative int
   range.  Each 8-byte load feeds the hash as two 32-bit halves, not as
   one word: [Int64.to_int] would drop bit 63, and every payload bit must
   count.  Each step is a bijection of the running state, so a change
   confined to one word is always detected. *)
let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let checksum_basis = fnv_offset

let[@inline] checksum_word h ~lo ~hi =
  (((h lxor lo) * fnv_prime) lxor hi) * fnv_prime

let checksum buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Checkpoint.checksum";
  let h = ref fnv_offset in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let w = Bytes.get_int64_le buf (off + (8 * i)) in
    h :=
      checksum_word !h
        ~lo:(Int64.to_int w land 0xFFFF_FFFF)
        ~hi:(Int64.to_int (Int64.shift_right_logical w 32))
  done;
  for i = off + (8 * words) to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * fnv_prime
  done;
  !h land max_int

(* --- little-endian integer helpers ----------------------------------- *)

let put_u64 buf off v = Bytes.set_int64_le buf off (Int64.of_int v)

let get_u64 buf off =
  let v = Int64.to_int (Bytes.get_int64_le buf off) in
  if v < 0 then corrupt "64-bit field at offset %d out of int range" off;
  v

(* --- int-array payloads ----------------------------------------------- *)

let bytes_of_ints ?len a =
  let len = Option.value len ~default:(Array.length a) in
  if len < 0 || len > Array.length a then invalid_arg "Checkpoint.bytes_of_ints";
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int (Array.unsafe_get a i))
  done;
  b

let ints_of_bytes b =
  if Bytes.length b mod 8 <> 0 then
    corrupt "int-array payload of %d bytes (not a multiple of 8)"
      (Bytes.length b);
  Array.init (Bytes.length b / 8) (fun i ->
      Int64.to_int (Bytes.get_int64_le b (8 * i)))

(* --- framing ----------------------------------------------------------- *)

type payload = Raw of Bytes.t | Ints of int array * int

(* [checksum] of the [bytes_of_ints ~len a] image, read from the ints:
   word [x]'s low and high 32-bit halves, with the high half of the
   sign-extended 64-bit word (bits 32-62 of [x], then its sign). *)
let checksum_ints a len =
  if len < 0 || len > Array.length a then
    invalid_arg "Checkpoint.frame: int prefix out of range";
  let h = ref fnv_offset in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get a i in
    h :=
      checksum_word !h ~lo:(x land 0xFFFF_FFFF)
        ~hi:((x asr 32) land 0xFFFF_FFFF)
  done;
  !h land max_int

(* Int payloads are encoded through one scratch buffer of this many
   bytes, a multiple of 8. *)
let scratch_bytes = 65536

let frame piece sections =
  let header = Bytes.create (String.length magic + 4) in
  Bytes.blit_string magic 0 header 0 (String.length magic);
  Bytes.set_int32_le header (String.length magic)
    (Int32.of_int (List.length sections));
  piece header (Bytes.length header);
  let scratch = lazy (Bytes.create scratch_bytes) in
  List.iter
    (fun (tag, payload) ->
      let tl = String.length tag in
      if tl > 0xFFFF then invalid_arg "Checkpoint.frame: tag too long";
      let pl, crc =
        match payload with
        | Raw b -> (Bytes.length b, checksum b 0 (Bytes.length b))
        | Ints (a, len) -> (8 * len, checksum_ints a len)
      in
      let h = Bytes.create (2 + tl + 16) in
      Bytes.set_uint16_le h 0 tl;
      Bytes.blit_string tag 0 h 2 tl;
      put_u64 h (2 + tl) pl;
      put_u64 h (2 + tl + 8) crc;
      piece h (Bytes.length h);
      match payload with
      | Raw b -> piece b (Bytes.length b)
      | Ints (a, len) ->
          let scratch = Lazy.force scratch in
          let i = ref 0 in
          while !i < len do
            let k = min (scratch_bytes / 8) (len - !i) in
            for j = 0 to k - 1 do
              Bytes.set_int64_le scratch (8 * j)
                (Int64.of_int (Array.unsafe_get a (!i + j)))
            done;
            piece scratch (8 * k);
            i := !i + k
          done)
    sections

let to_bytes sections =
  let b = Buffer.create 4096 in
  frame
    (fun buf len -> Buffer.add_subbytes b buf 0 len)
    (List.map (fun (tag, p) -> (tag, Raw p)) sections);
  Buffer.to_bytes b

let of_bytes b =
  let len = Bytes.length b in
  if len < String.length magic + 4 then corrupt "truncated header (%d bytes)" len;
  let found = Bytes.sub_string b 0 (String.length magic) in
  if found <> magic then
    if String.starts_with ~prefix:magic_family found then
      corrupt
        "checkpoint format version %s, this build reads version %s; restart \
         the run without --resume"
        (String.sub found (String.length magic_family) 1)
        (String.sub magic (String.length magic_family) 1)
    else corrupt "bad magic (not a checkpoint file)";
  let nsec = Int32.to_int (Bytes.get_int32_le b (String.length magic)) in
  if nsec < 0 || nsec > 0xFFFF then corrupt "implausible section count %d" nsec;
  let off = ref (String.length magic + 4) in
  let sections = ref [] in
  for s = 0 to nsec - 1 do
    if !off + 2 > len then corrupt "truncated at section %d tag length" s;
    let tl = Bytes.get_uint16_le b !off in
    if !off + 2 + tl + 16 > len then corrupt "truncated at section %d header" s;
    let tag = Bytes.sub_string b (!off + 2) tl in
    let pl = get_u64 b (!off + 2 + tl) in
    let crc = get_u64 b (!off + 2 + tl + 8) in
    let poff = !off + 2 + tl + 16 in
    if pl > len - poff then
      corrupt "truncated payload in section %S (%d bytes claimed)" tag pl;
    if checksum b poff pl <> crc then corrupt "checksum mismatch in section %S" tag;
    sections := (tag, Bytes.sub b poff pl) :: !sections;
    off := poff + pl
  done;
  if !off <> len then corrupt "%d trailing bytes after last section" (len - !off);
  List.rev !sections

let find tag sections =
  match List.assoc_opt tag sections with
  | Some payload -> payload
  | None -> corrupt "missing section %S" tag

let find_records ~who ~width ?count tag sections =
  let b = find tag sections in
  let len = Bytes.length b in
  let whole = len mod width = 0 in
  let counted = match count with Some k -> len = k * width | None -> true in
  if not (whole && counted) then
    corrupt "%s: %s section of wrong length" who tag;
  b

let find_ints ~who ?(group = 1) ?count tag sections =
  ints_of_bytes (find_records ~who ~width:(8 * group) ?count tag sections)

(* --- atomic file I/O --------------------------------------------------- *)

let torn_write : int option ref = ref None
let set_torn_write n = torn_write := n

let write ~path sections =
  let torn = !torn_write in
  torn_write := None;
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  (* [budget]: the bytes the torn-write hook still lets through *)
  let budget = ref (Option.value torn ~default:max_int) in
  let rec write_all buf off remaining =
    if remaining > 0 then
      let w = Unix.write fd buf off remaining in
      write_all buf (off + w) (remaining - w)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      frame
        (fun buf len ->
          let k = min !budget len in
          write_all buf 0 k;
          budget := !budget - k)
        sections;
      Unix.fsync fd);
  if torn <> None then raise Simulated_crash;
  Sys.rename tmp path

let save ~path sections =
  write ~path (List.map (fun (tag, b) -> (tag, Raw b)) sections)

let load ~path =
  let ic = open_in_bin path in
  let image =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        b)
  in
  of_bytes image

type policy = { path : string; every_states : int }

let runs_dir path = path ^ ".runs"

let retire path =
  if Sys.file_exists path then Sys.remove path;
  let dir = runs_dir path in
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* --- the durability contract ------------------------------------------- *)

type run = {
  governor : Governor.t option;
  policy : policy option;
  save : string -> unit;
  mutable since : int;  (* ticks since the last save or the run's start *)
}

(* A run with neither a policy nor a governor does nothing; one shared
   value serves them all, so such an engine call allocates no run. *)
let inert = { governor = None; policy = None; save = ignore; since = 0 }

let run ?governor policy save =
  match (governor, policy) with
  | None, None -> inert
  | _ -> { governor; policy; save; since = 0 }

let poll r =
  (match r.policy with Some _ -> r.since <- r.since + 1 | None -> ());
  match r.governor with Some g -> Governor.tick g | None -> None

(* The one cadence: a save is due once [every_states] ticks have passed
   since the last one; [final] forces it. *)
let save_if r ~final =
  match r.policy with
  | Some { path; every_states }
    when final || (every_states > 0 && r.since >= every_states) ->
      r.since <- 0;
      r.save path
  | _ -> ()

let settle r =
  save_if r
    ~final:
      (match r.governor with
      | Some g -> Governor.tripped g <> None
      | None -> false)

let tick r =
  let tripped = poll r in
  save_if r ~final:(tripped <> None);
  tripped

(* The engine tag a context starts with ("dfs", "bfs", "fpbfs", ...). *)
let engine_of context =
  match String.index_opt context '|' with
  | Some i -> String.sub context 0 i
  | None -> context

let resumable ~who ~context ~resume = function
  | Some { path; _ } when resume && Sys.file_exists path ->
      let sections = load ~path in
      let found = Bytes.to_string (find "context" sections) in
      if not (String.equal found context) then
        corrupt "%s: checkpoint context mismatch (the image is a %s checkpoint%s)" who
          (engine_of found)
          (if String.equal (engine_of found) (engine_of context) then
             " of another configuration or key layout"
           else "");
      Some sections
  | _ -> None
