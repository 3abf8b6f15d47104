(** The downward-closure cut network of a DAG, built once and reused for
    every vertex.

    For a vertex [v], a {e feasible set} is a downward-closed [S ⊆ V]
    that contains [v] and none of [v]'s descendants — the set of already
    evaluated vertices at the instant [v] has just been evaluated.  Its
    {e wavefront} is the set of members with an edge leaving [S].  Given
    a set of {e counted} vertices, {!cut} computes

    [min over feasible S of |wavefront(S) ∩ counted|]

    as a min [s]-[t] cut on a vertex-split network: vertex [u] is split
    into [u_in -> u_out] of capacity 1 when [u] is counted and 0
    otherwise, infinite arcs [u_out -> w_in] and [w_in -> u_in] per edge
    [(u, w)] encode "interior implies successors inside" and downward
    closure, [s] feeds [v_in], and every descendant's [in]-node feeds [t].

    The network is built once per graph, with one [s -> u_in] and one
    [u_in -> t] edge per vertex; a cut only resets the split and
    attachment capacities before solving.  Both the convex min-cut
    baseline ({!Convex_mincut}) and the DAG-visit bound cut this
    network.  A value is not safe to share between domains. *)

type t

val create : Graphio_graph.Dag.t -> t
(** Builds the network: [2n + 2] nodes and [3n + 2m] edges. *)

val n_vertices : t -> int
(** Vertices of the underlying graph. *)

val descendants : Graphio_graph.Dag.t -> int -> bool array
(** [descendants g v] marks the strict descendants of [v]. *)

val cut : t -> counted:bool array -> int -> int
(** [cut t ~counted v] — the minimum number of counted wavefront
    vertices over [v]'s feasible sets; [0] when [v] has no successors
    (then [S = V] is feasible).  Raises [Invalid_argument] when [counted]
    is not [n] long. *)

val wavefront : t -> int -> int
(** [wavefront t v] = [C(v)], the {!cut} with every vertex counted. *)

val upper_bound : t -> int -> int
(** [min(|wavefront(anc*(v))|, |wavefront(V \ desc(v))|)], where
    [anc*(v)] is [v] with all its ancestors.  Both sets are feasible for
    [v], so this is [>= wavefront t v]; it costs two graph traversals and
    no max-flow. *)
