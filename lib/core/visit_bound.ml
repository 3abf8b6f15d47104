open Graphio_graph
open Graphio_flow

type profile = { chains : int array array }

(* One longest path, source to deepest sink, by walking levels backwards
   (deterministic: deepest vertex of smallest id, then the smallest-id
   predecessor one level up). *)
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

let max_anchors = 16
let singleton_sweep_limit = 256

let subsample arr k =
  let len = Array.length arr in
  if len <= k then arr
  else Array.init k (fun i -> arr.(i * (len - 1) / (k - 1)))

let profile g =
  let n = Dag.n_vertices g in
  if n = 0 then { chains = [||] }
  else begin
    let net = Closure_net.create g in
    let desc_memo = Hashtbl.create 16 in
    let desc v =
      match Hashtbl.find_opt desc_memo v with
      | Some d -> d
      | None ->
          let d = Closure_net.descendants g v in
          Hashtbl.add desc_memo v d;
          d
    in
    let flow_memo = Hashtbl.create 64 in
    (* C_i counts only strict descendants of the previous anchor; the
       first anchor of a chain counts every vertex. *)
    let counted_cut ~prev v =
      match Hashtbl.find_opt flow_memo (prev, v) with
      | Some c -> c
      | None ->
          let c =
            if prev < 0 then Closure_net.wavefront net v
            else Closure_net.cut net ~counted:(desc prev) v
          in
          Hashtbl.add flow_memo (prev, v) c;
          c
    in
    let eval_chain anchors =
      Array.mapi
        (fun i v ->
          let prev = if i = 0 then -1 else anchors.(i - 1) in
          counted_cut ~prev v)
        anchors
    in
    let candidates = subsample (critical_path g) max_anchors in
    let chains = ref [] in
    List.iter
      (fun stride ->
        let c =
          Array.of_list
            (List.filteri
               (fun i _ -> i mod stride = 0)
               (Array.to_list candidates))
        in
        if Array.length c > 0 then chains := c :: !chains)
      [ 1; 2; 4 ];
    Array.iter (fun v -> chains := [| v |] :: !chains) candidates;
    let chains = Array.map eval_chain (Array.of_list (List.rev !chains)) in
    if n > singleton_sweep_limit then { chains }
    else begin
      (* Of the singleton chains only the largest count can reach the
         bound, so the sweep over every vertex keeps just max_v C(v),
         seeded with the candidates' singleton cuts. *)
      let known =
        Array.to_list
          (Array.map
             (fun v ->
               { Convex_mincut.vertex = v; wavefront = counted_cut ~prev:(-1) v })
             candidates)
      in
      let best = Convex_mincut.sweep net ~known in
      { chains = Array.append chains [| [| best.wavefront |] |] }
    end
  end

let bound_of_profile { chains } ~m =
  if m < 0 then invalid_arg "Visit_bound.bound: negative memory size";
  let best = ref 0 in
  Array.iter
    (fun chain ->
      let s =
        Array.fold_left (fun acc c -> acc + max 0 (c - m)) 0 chain
      in
      if s > !best then best := s)
    chains;
  2 * !best

let bound g ~m = bound_of_profile (profile g) ~m
