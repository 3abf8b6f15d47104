(** DAG-visit lower bound on I/O (after Bilardi, arXiv 2210.01897).

    For a chain of anchors [v_1 < v_2 < ... < v_r] along a critical path,
    let [C_i] be the minimum, over downward-closed vertex sets [P]
    containing [v_i] and disjoint from [desc(v_i)], of the number of
    boundary vertices of [P] that are strict descendants of [v_(i-1)]
    (all boundary vertices count for [i = 1]).  At the moment [v_i] is
    computed the realized computed set is such a [P], and the counted
    boundary values are pairwise disjoint across [i] (each is sandwiched
    strictly between consecutive anchors), so each value not resident in
    fast memory accounts for one write and one later read:

    {v J* >= 2 * sum_i max(0, C_i - M) v}

    Each [C_i] is a vertex-capacitated min cut (capacity 1 on counted
    vertices, 0 otherwise) on the graph's
    {!Graphio_flow.Closure_net}, the same downward-closure network as
    [Convex_mincut], built once per profile.  With a single anchor and
    all vertices counted this degenerates to the convex min-cut bound,
    and on small graphs the profile always includes its exact maximum
    [max_v C(v)], so the visit bound dominates the min-cut baseline
    there.

    The profile (per-chain count arrays) is independent of the fast
    memory size [M]; {!bound_of_profile} folds a given [M] over it, so
    callers can evaluate one graph at many [M] for the price of one set
    of flow computations. *)

type profile

val profile : Graphio_graph.Dag.t -> profile
(** Computes counted-cut chains: the critical path subsampled to at most
    16 anchors at strides 1, 2 and 4, each anchor as a singleton chain,
    and (when [n <= 256]) the one-element chain [[| max_v C(v) |]].  A
    singleton chain adds [max(0, C(v) - M)], so that one chain gives the
    bound of a singleton chain for every vertex; it comes from the pruned
    sweep {!Graphio_flow.Convex_mincut.sweep}, seeded with the anchors'
    singleton cuts, and the bound is the same as with every vertex's
    chain. *)

val bound_of_profile : profile -> m:int -> int
(** [2 * max] over chains of [sum_i max(0, C_i - m)].  Raises
    [Invalid_argument] on negative [m]. *)

val bound : Graphio_graph.Dag.t -> m:int -> int
(** [bound_of_profile (profile g) ~m]. *)
