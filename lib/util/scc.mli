(** Strongly connected components of an explicit graph in CSR form.

    The one Tarjan of the repository: the model checker's wait-freedom
    pass ({!Modelcheck.Explorer} and the parallel engines, over the merged
    edge image) and {!Digraph.scc_ids} both call it.  Iterative — the
    state graphs run to millions of nodes, so no recursion. *)

val tarjan : n:int -> off:(int -> int) -> adj:(int -> int) -> int array * int
(** [tarjan ~n ~off ~adj] labels the [n] nodes of the graph whose
    out-neighbours of [u] are [adj (off u) .. adj (off (u+1) - 1)] with
    component ids, returning [(comp, count)].  [off] and [adj] are
    accessor functions rather than arrays so callers can serve them
    straight from packed byte representations
    ({!Modelcheck.State_table.Packed_vec}) without materializing an
    intermediate [int array] copy of the edge image.  Component ids are
    assigned in reverse topological order: an edge between two
    components points from the higher id to the lower. *)
