(* The exhaustive reference for the pruned sweeps: a fresh closure network
   per cut, built edge by edge through [Dinic.add_edge], and a max over
   every vertex with no pruning.  The visit profile is the one with a
   singleton chain for every vertex of a small graph. *)

open Graphio_graph
open Graphio_flow

let descendants g v =
  let n = Dag.n_vertices g in
  let seen = Array.make n false in
  let rec visit u =
    Dag.iter_succ g u (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          visit w
        end)
  in
  visit v;
  seen

(* Min over downward-closed P (v in P, P disjoint from desc_v) of the
   number of counted boundary vertices of P. *)
let counted_cut g ~counted v =
  if Dag.out_degree g v = 0 then 0
  else begin
    let n = Dag.n_vertices g in
    (* Node layout: u_in = 2u, u_out = 2u + 1, s = 2n, t = 2n + 1. *)
    let net = Dinic.create ((2 * n) + 2) in
    let s = 2 * n and t = (2 * n) + 1 in
    let node_in u = 2 * u and node_out u = (2 * u) + 1 in
    for u = 0 to n - 1 do
      if counted.(u) then
        Dinic.add_edge net ~src:(node_in u) ~dst:(node_out u) ~cap:1
    done;
    Dag.iter_edges g (fun u w ->
        Dinic.add_edge net ~src:(node_out u) ~dst:(node_in w) ~cap:Dinic.inf_cap;
        Dinic.add_edge net ~src:(node_in w) ~dst:(node_in u) ~cap:Dinic.inf_cap);
    Dinic.add_edge net ~src:s ~dst:(node_in v) ~cap:Dinic.inf_cap;
    let desc = descendants g v in
    for d = 0 to n - 1 do
      if desc.(d) then Dinic.add_edge net ~src:(node_in d) ~dst:t ~cap:Dinic.inf_cap
    done;
    Dinic.max_flow net ~s ~sink:t
  end

let min_wavefront g v =
  counted_cut g ~counted:(Array.make (Dag.n_vertices g) true) v

(* (value, vertex): the first vertex attaining the max. *)
let max_wavefront g =
  let best = ref (0, -1) in
  for v = 0 to Dag.n_vertices g - 1 do
    let c = min_wavefront g v in
    if c > fst !best || snd !best < 0 then best := (c, v)
  done;
  !best

let critical_path g =
  let levels = Stats.levels g in
  let n = Array.length levels in
  if n = 0 then [||]
  else begin
    let vmax = ref 0 in
    for v = 1 to n - 1 do
      if levels.(v) > levels.(!vmax) then vmax := v
    done;
    let path = ref [ !vmax ] in
    let cur = ref !vmax in
    while levels.(!cur) > 0 do
      let best = ref (-1) in
      Dag.iter_pred g !cur (fun u ->
          if levels.(u) = levels.(!cur) - 1 && (!best < 0 || u < !best) then
            best := u);
      cur := !best;
      path := !cur :: !path
    done;
    Array.of_list !path
  end

let subsample arr k =
  let len = Array.length arr in
  if len <= k then arr
  else Array.init k (fun i -> arr.(i * (len - 1) / (k - 1)))

(* Count arrays of every chain: anchors at strides 1, 2 and 4, each
   anchor alone, and every vertex alone when n <= 256. *)
let visit_chains g =
  let n = Dag.n_vertices g in
  let all = Array.make n true in
  let eval_chain anchors =
    Array.mapi
      (fun i v ->
        let counted = if i = 0 then all else descendants g anchors.(i - 1) in
        counted_cut g ~counted v)
      anchors
  in
  let candidates = subsample (critical_path g) 16 in
  let strided =
    List.map
      (fun stride ->
        Array.of_list
          (List.filteri (fun i _ -> i mod stride = 0) (Array.to_list candidates)))
      [ 1; 2; 4 ]
  in
  let singletons = List.map (fun v -> [| v |]) (Array.to_list candidates) in
  let sweep = if n <= 256 then List.init n (fun v -> [| v |]) else [] in
  List.map eval_chain (List.filter (fun c -> Array.length c > 0) strided @ singletons @ sweep)

let visit_bound chains ~m =
  2
  * List.fold_left
      (fun best chain ->
        max best (Array.fold_left (fun acc c -> acc + max 0 (c - m)) 0 chain))
      0 chains
