type t = { mutable edges : int; succ : int list array }

let create n = { edges = 0; succ = Array.make n [] }
let vertex_count g = Array.length g.succ

let add_edge g u v =
  g.succ.(u) <- v :: g.succ.(u);
  g.edges <- g.edges + 1

let successors g u = g.succ.(u)
let edge_count g = g.edges

let sources g =
  let n = vertex_count g in
  let incoming = Array.make n false in
  Array.iter (List.iter (fun v -> incoming.(v) <- true)) g.succ;
  List.filter (fun v -> not incoming.(v)) (List.init n Fun.id)

(* Tarjan over the CSR image of the successor lists, each in list
   order. *)
let scc_ids g =
  let n = vertex_count g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + List.length g.succ.(u)
  done;
  let adj = Array.make off.(n) 0 in
  Array.iteri
    (fun u vs -> List.iteri (fun i v -> adj.(off.(u) + i) <- v) vs)
    g.succ;
  Scc.tarjan ~n ~off:(Array.get off) ~adj:(Array.get adj)

let sccs g =
  let comp, count = scc_ids g in
  let buckets = Array.make count [] in
  Array.iteri (fun v c -> buckets.(c) <- v :: buckets.(c)) comp;
  Array.to_list buckets

let has_self_loop g v = List.mem v g.succ.(v)

let is_acyclic g =
  let comp, count = scc_ids g in
  count = vertex_count g
  && not (Array.exists (fun v -> has_self_loop g v) (Array.init (vertex_count g) Fun.id))
  && Array.length comp = vertex_count g

let reachable_from g starts =
  let n = vertex_count g in
  let seen = Array.make n false in
  let rec dfs stack =
    match stack with
    | [] -> ()
    | v :: rest ->
        let push =
          List.filter
            (fun w ->
              if seen.(w) then false
              else begin
                seen.(w) <- true;
                true
              end)
            g.succ.(v)
        in
        dfs (push @ rest)
  in
  List.iter (fun s -> seen.(s) <- true) starts;
  dfs starts;
  seen
