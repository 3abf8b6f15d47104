open Graphio_graph

type per_vertex = {
  vertex : int;
  wavefront : int;
}

let min_wavefront g v = Closure_net.wavefront (Closure_net.create g) v

let c_wavefronts = Graphio_obs.Metrics.counter "flow.mincut.wavefronts"
let c_pruned = Graphio_obs.Metrics.counter "flow.mincut.pruned"

let h_wavefront_seconds =
  Graphio_obs.Metrics.histogram "flow.mincut.wavefront_seconds"

(* The running best is the smallest vertex attaining the largest value
   seen; [vertex = -1] until the first value. *)
let improves best v c =
  best.vertex < 0 || c > best.wavefront
  || (c = best.wavefront && v < best.vertex)

let sweep net ~known =
  let n = Closure_net.n_vertices net in
  let best = ref { vertex = -1; wavefront = 0 } in
  let is_known = Array.make n false in
  List.iter
    (fun p ->
      is_known.(p.vertex) <- true;
      if improves !best p.vertex p.wavefront then best := p)
    known;
  let ub = Array.init n (Closure_net.upper_bound net) in
  let order = Array.init n Fun.id in
  (* Decreasing bound; the stable sort keeps ties in vertex order. *)
  Array.stable_sort (fun a b -> compare ub.(b) ub.(a)) order;
  Array.iter
    (fun v ->
      if not is_known.(v) then
        (* C(v) <= ub(v), so v can only take over the running best when
           ub(v) beats it, or ties it from a smaller vertex. *)
        if improves !best v ub.(v) then begin
          let c =
            Graphio_obs.Metrics.time h_wavefront_seconds (fun () ->
                Closure_net.wavefront net v)
          in
          Graphio_obs.Metrics.incr c_wavefronts;
          if improves !best v c then best := { vertex = v; wavefront = c }
        end
        else Graphio_obs.Metrics.incr c_pruned)
    order;
  !best

let max_wavefront g =
  Graphio_obs.Span.with_ "mincut.max_wavefront" (fun () ->
      sweep (Closure_net.create g) ~known:[])

let bound_of_wavefront best ~m =
  if m < 0 then invalid_arg "Convex_mincut.bound_of_wavefront: negative memory size";
  max 0 (2 * (best.wavefront - m))

let bound_detailed g ~m =
  if m < 0 then invalid_arg "Convex_mincut.bound: negative memory size";
  let best = max_wavefront g in
  (bound_of_wavefront best ~m, best)

let bound g ~m = fst (bound_detailed g ~m)

let bound_partitioned g ~m ~part_size =
  if m < 0 then invalid_arg "Convex_mincut.bound_partitioned: negative memory size";
  let part = Partition.balanced g ~part_size in
  let total = ref 0 in
  for p = 0 to Partition.count part - 1 do
    let sub, _mapping = Dag.induced_subgraph g (Partition.members part p) in
    total := !total + bound_of_wavefront (max_wavefront sub) ~m
  done;
  !total
