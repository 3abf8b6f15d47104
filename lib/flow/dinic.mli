(** Dinic's maximum-flow algorithm on integer capacities.

    The flow substrate behind the convex min-cut baseline: level graph BFS
    plus blocking-flow DFS, [O(V^2 E)] in general and much better on the
    unit-capacity networks we build.  Capacities use [inf_cap] as the
    "uncuttable" value; the implementation guards against overflow by
    capping augmentations at [inf_cap]. *)

type t

val inf_cap : int
(** Effectively infinite capacity ([max_int / 4]). *)

val create : int -> t
(** [create n] — a network on nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> unit
(** Adds a directed edge (and its residual reverse of capacity 0).
    Capacities must be nonnegative.  Parallel edges are allowed.  Edges
    are numbered [0, 1, ...] in the order they are added; raises
    [Invalid_argument] once the network has been solved or its
    capacities changed. *)

val n_nodes : t -> int

val set_capacity : t -> edge:int -> cap:int -> unit
(** [set_capacity t ~edge ~cap] replaces the original capacity of the
    [edge]-th added edge; it takes effect at the next {!max_flow}.  This
    is how one network serves many cuts that differ only in a few
    capacities.  Raises [Invalid_argument] on an unknown edge or a
    negative capacity. *)

val max_flow : t -> s:int -> sink:int -> int
(** Computes the max [s]-[sink] flow.  Every call starts from the
    original capacities, so a network may be solved any number of times,
    for any pair of nodes.  Raises [Invalid_argument] if [s = sink]. *)

val min_cut_side : t -> s:int -> bool array
(** After {!max_flow}: the source side of a minimum cut (nodes reachable
    from [s] in the residual network of the last solve). *)

val cut_value : t -> bool array -> int
(** Total capacity of original edges leaving the given side (checks the
    max-flow/min-cut equality in tests). *)
