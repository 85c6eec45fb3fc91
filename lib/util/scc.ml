(* Iterative Tarjan over a graph in CSR form; see scc.mli.  The state
   graphs run to millions of nodes, so no recursion. *)

let tarjan ~n ~off ~adj =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bytes.make (max n 1) '\000' in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let comp_count = ref 0 in
  let visit root =
    let frames = ref [ (root, ref (off root)) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    Bytes.set on_stack root '\001';
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, cursor) :: parent_frames -> (
          if !cursor < off (v + 1) then begin
            let w = adj !cursor in
            incr cursor;
            if index.(w) = -1 then begin
              index.(w) <- !next_index;
              lowlink.(w) <- !next_index;
              incr next_index;
              stack := w :: !stack;
              Bytes.set on_stack w '\001';
              frames := (w, ref (off w)) :: !frames
            end
            else if Bytes.get on_stack w = '\001' then
              lowlink.(v) <- min lowlink.(v) index.(w)
          end
          else begin
            if lowlink.(v) = index.(v) then begin
              let continue = ref true in
              while !continue do
                match !stack with
                | [] -> continue := false
                | w :: tl ->
                    stack := tl;
                    Bytes.set on_stack w '\000';
                    comp.(w) <- !comp_count;
                    if w = v then continue := false
              done;
              incr comp_count
            end;
            frames := parent_frames;
            match parent_frames with
            | (u, _) :: _ -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
            | [] -> ()
          end)
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  (comp, !comp_count)
