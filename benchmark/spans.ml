(* In-memory span recorder for traced runs.

   Spans are opened only by the benchmark's own code, around its calls
   into a layer of the library; their names read "<layer>.<entry>".
   Per-call layers (step machines, codecs, invariants) never get a span
   per call: they are aggregated as counters attached to the enclosing
   span.  Nothing is written until the run ends ([write_jsonl]).  With
   recording off, [with_span] is a plain call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start_ns : int;
  end_ns : int;
  counts : (string * int) list;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

(* Nanoseconds since the process started, so timestamps stay exact in
   the JSON numbers of the trace file. *)
let epoch = Unix.gettimeofday ()
let now_ns () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e9)

let current () = match !open_ids with p :: _ -> p | [] -> -1

let with_span ?(counts = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = current () in
    open_ids := id :: !open_ids;
    let start_ns = now_ns () in
    let close c =
      open_ids := List.tl !open_ids;
      recorded :=
        { id; parent; name; start_ns; end_ns = now_ns (); counts = c } :: !recorded
    in
    match f () with
    | r ->
        close (counts r);
        r
    | exception e ->
        close [];
        raise e
  end

(* A span whose boundaries were observed through a library callback
   (one wiring of a sweep, one cell of the feasibility map): a child of
   the innermost open span. *)
let add name ~start_ns ~end_ns =
  if !enabled then begin
    recorded :=
      { id = !next_id; parent = current (); name; start_ns; end_ns; counts = [] } :: !recorded;
    incr next_id
  end

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time: a span's duration minus the time its children cover.
   Children of one span never overlap (spans are opened from a single
   domain), so their durations add up. *)
let self_ns spans =
  let child_ns = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)
          + (s.end_ns - s.start_ns)))
    spans;
  List.map
    (fun s ->
      (s, s.end_ns - s.start_ns - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)))
    spans

(* Self seconds summed per layer. *)
let layer_self_s () =
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      Hashtbl.replace by_layer l
        (Option.value ~default:0 (Hashtbl.find_opt by_layer l) + self))
    (self_ns !recorded);
  Hashtbl.fold (fun l ns acc -> (l, float_of_int ns /. 1e9) :: acc) by_layer []
  |> List.sort compare

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("parent", Json.Num (float_of_int s.parent));
                ("name", Json.Str s.name);
                ("start_ns", Json.Num (float_of_int s.start_ns));
                ("end_ns", Json.Num (float_of_int s.end_ns));
                ("self_ns", Json.Num (float_of_int self));
                ( "counts",
                  Json.Obj
                    (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) s.counts) );
              ]));
      output_char oc '\n')
    (self_ns (List.sort (fun a b -> compare a.id b.id) !recorded));
  close_out oc
