(** The convex min-cut I/O lower bound — the paper's automatic baseline
    (Elango, Rastello, Pouchet, Ramanujam & Sadayappan, "Data access
    complexity: the red/blue pebble game revisited"; reference [13]).

    For a vertex [v], consider any schedule at the instant [v] has just
    been evaluated.  The set [S] of already-evaluated vertices is closed
    under predecessors ("convex" / downward-closed), contains [v] and all
    of [v]'s ancestors, and excludes all of [v]'s descendants.  Every
    vertex of [S] with an edge into [V \ S] (the {e wavefront}) holds a
    value still needed later, so at most [M] of them can sit in fast
    memory and each of the rest costs a write now and a read later:

    [J*_G >= max_v max(0, 2 (C(v, G) − M))]

    where [C(v, G)] is the {e minimum} wavefront size over all such [S].
    [C(v, G)] is computed exactly as a min cut on the graph's
    {!Closure_net}, built once and reused for every [v].

    The whole-graph bound is the exact [max_v C(v, G)], found by a pruned
    sweep: every vertex gets a cheap upper bound
    ({!Closure_net.upper_bound}, two traversals, no max-flow), vertices
    are visited in decreasing bound order, and a vertex whose bound cannot
    beat the running best is skipped.  The value and the maximizing vertex
    are those of the exhaustive sweep over all [n] vertices — only the
    number of max-flow runs drops, typically to a small fraction of [n].
    (The paper's Figure 11 times the exhaustive sweep.)  The partitioned
    variant follows the original authors' [2M]-sub-graph suggestion; the
    paper reports (and we reproduce) that it is trivial on complex
    graphs. *)

type per_vertex = {
  vertex : int;
  wavefront : int;  (** [C(v, G)] *)
}

val min_wavefront : Graphio_graph.Dag.t -> int -> int
(** [min_wavefront g v] = [C(v, G)].  [0] when [v] has no successors. *)

val max_wavefront : Graphio_graph.Dag.t -> per_vertex
(** [max_v C(v, G)] with its maximizing vertex (the smallest one on
    ties) — the expensive part of the bound, independent of [M]; sweeps
    over many [M] values should compute it once and finish with
    {!bound_of_wavefront}.  Counts the cuts it runs in
    [flow.mincut.wavefronts] and the vertices it skips in
    [flow.mincut.pruned]; [{vertex = -1; wavefront = 0}] on the empty
    graph. *)

val sweep : Closure_net.t -> known:per_vertex list -> per_vertex
(** The pruned sweep behind {!max_wavefront}, on a caller's network.
    [known] lists vertices whose [C(v, G)] the caller has already cut;
    they seed the running best and are not cut again.  Runs no span. *)

val bound_of_wavefront : per_vertex -> m:int -> int
(** [max 0 (2 (C - M))]. *)

val bound : Graphio_graph.Dag.t -> m:int -> int
(** Whole-graph bound [max_v max(0, 2 (C(v,G) − M))]. *)

val bound_detailed : Graphio_graph.Dag.t -> m:int -> int * per_vertex
(** The bound together with the maximizing vertex and its wavefront. *)

val bound_partitioned : Graphio_graph.Dag.t -> m:int -> part_size:int -> int
(** [Σ_P max_{v∈P} max(0, 2 (C(v, G_P) − M))] over the BFS-balanced
    partition into parts of at most [part_size] (the original paper
    suggests [2M]). *)
