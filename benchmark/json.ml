(* Just enough JSON for the benchmark's own files: the child -> parent
   record, the result lines, BENCHMARK.json and the A/B inputs of
   compare.exe.  Output is compact (one value per line). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Integral values print without a fraction; everything else keeps all
   17 significant digits, so a measured time is never rounded. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Json.number: not finite"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> Buffer.add_string b (number f)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          write b (Str k);
          Buffer.add_string b ": ";
          write b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= len then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > len then fail "bad \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number_lit () =
    let start = !pos in
    while
      !pos < len
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number_lit ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> len then fail "trailing characters";
  v

let member k = function Obj l -> Option.value ~default:Null (List.assoc_opt k l) | _ -> Null
let to_float = function Num f -> f | _ -> raise (Parse_error "expected a number")
let to_int v = int_of_float (to_float v)
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Parse_error "expected an array")
let to_obj = function Obj l -> l | _ -> raise (Parse_error "expected an object")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "expected a boolean")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
