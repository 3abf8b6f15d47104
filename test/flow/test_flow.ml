open Graphio_flow
open Graphio_graph

(* ------------------------------------------------------------------ *)
(* Dinic                                                               *)
(* ------------------------------------------------------------------ *)

let test_dinic_single_edge () =
  let net = Dinic.create 2 in
  Dinic.add_edge net ~src:0 ~dst:1 ~cap:5;
  Alcotest.(check int) "flow" 5 (Dinic.max_flow net ~s:0 ~sink:1)

let test_dinic_series_bottleneck () =
  let net = Dinic.create 3 in
  Dinic.add_edge net ~src:0 ~dst:1 ~cap:7;
  Dinic.add_edge net ~src:1 ~dst:2 ~cap:3;
  Alcotest.(check int) "bottleneck" 3 (Dinic.max_flow net ~s:0 ~sink:2)

let test_dinic_parallel_paths () =
  let net = Dinic.create 4 in
  Dinic.add_edge net ~src:0 ~dst:1 ~cap:2;
  Dinic.add_edge net ~src:0 ~dst:2 ~cap:3;
  Dinic.add_edge net ~src:1 ~dst:3 ~cap:2;
  Dinic.add_edge net ~src:2 ~dst:3 ~cap:4;
  Alcotest.(check int) "sum" 5 (Dinic.max_flow net ~s:0 ~sink:3)

let test_dinic_classic_textbook () =
  (* The classic CLRS network with max flow 23. *)
  let net = Dinic.create 6 in
  let edges =
    [ (0, 1, 16); (0, 2, 13); (1, 2, 10); (2, 1, 4); (1, 3, 12); (3, 2, 9);
      (2, 4, 14); (4, 3, 7); (3, 5, 20); (4, 5, 4) ]
  in
  List.iter (fun (src, dst, cap) -> Dinic.add_edge net ~src ~dst ~cap) edges;
  Alcotest.(check int) "clrs" 23 (Dinic.max_flow net ~s:0 ~sink:5)

let test_dinic_disconnected () =
  let net = Dinic.create 4 in
  Dinic.add_edge net ~src:0 ~dst:1 ~cap:9;
  Dinic.add_edge net ~src:2 ~dst:3 ~cap:9;
  Alcotest.(check int) "no path" 0 (Dinic.max_flow net ~s:0 ~sink:3)

let test_dinic_mincut_matches_flow () =
  let net = Dinic.create 6 in
  let edges =
    [ (0, 1, 16); (0, 2, 13); (1, 2, 10); (2, 1, 4); (1, 3, 12); (3, 2, 9);
      (2, 4, 14); (4, 3, 7); (3, 5, 20); (4, 5, 4) ]
  in
  List.iter (fun (src, dst, cap) -> Dinic.add_edge net ~src ~dst ~cap) edges;
  let flow = Dinic.max_flow net ~s:0 ~sink:5 in
  let side = Dinic.min_cut_side net ~s:0 in
  Alcotest.(check bool) "s in side" true side.(0);
  Alcotest.(check bool) "t out of side" false side.(5);
  Alcotest.(check int) "cut = flow" flow (Dinic.cut_value net side)

let test_dinic_zero_capacity () =
  let net = Dinic.create 2 in
  Dinic.add_edge net ~src:0 ~dst:1 ~cap:0;
  Alcotest.(check int) "zero" 0 (Dinic.max_flow net ~s:0 ~sink:1)

let test_dinic_parallel_edges () =
  let net = Dinic.create 2 in
  Dinic.add_edge net ~src:0 ~dst:1 ~cap:2;
  Dinic.add_edge net ~src:0 ~dst:1 ~cap:3;
  Alcotest.(check int) "summed" 5 (Dinic.max_flow net ~s:0 ~sink:1)

(* A second solve must not see the first solve's residual flow. *)
let test_dinic_max_flow_repeatable () =
  let net = Dinic.create 6 in
  let edges =
    [ (0, 1, 16); (0, 2, 13); (1, 2, 10); (2, 1, 4); (1, 3, 12); (3, 2, 9);
      (2, 4, 14); (4, 3, 7); (3, 5, 20); (4, 5, 4) ]
  in
  List.iter (fun (src, dst, cap) -> Dinic.add_edge net ~src ~dst ~cap) edges;
  Alcotest.(check int) "first" 23 (Dinic.max_flow net ~s:0 ~sink:5);
  Alcotest.(check int) "again" 23 (Dinic.max_flow net ~s:0 ~sink:5);
  Alcotest.(check int) "other pair" 19 (Dinic.max_flow net ~s:1 ~sink:3)

let test_dinic_validation () =
  let net = Dinic.create 2 in
  Alcotest.check_raises "same node" (Invalid_argument "Dinic.max_flow: source equals sink")
    (fun () -> ignore (Dinic.max_flow net ~s:0 ~sink:0));
  Alcotest.check_raises "negative cap" (Invalid_argument "Dinic.add_edge: negative capacity")
    (fun () -> Dinic.add_edge net ~src:0 ~dst:1 ~cap:(-1));
  Alcotest.check_raises "bad node" (Invalid_argument "Dinic.add_edge: node out of range")
    (fun () -> Dinic.add_edge net ~src:0 ~dst:7 ~cap:1)

(* Brute-force min cut over all vertex bipartitions, for cross-checking. *)
let brute_force_min_cut n edges ~s ~sink =
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    if mask land (1 lsl s) <> 0 && mask land (1 lsl sink) = 0 then begin
      let cut =
        List.fold_left
          (fun acc (u, v, c) ->
            if mask land (1 lsl u) <> 0 && mask land (1 lsl v) = 0 then acc + c
            else acc)
          0 edges
      in
      if cut < !best then best := cut
    end
  done;
  !best

let test_dinic_vs_brute_force_random () =
  let rng = Graphio_la.Rng.create 31 in
  for trial = 1 to 30 do
    let n = 4 + Graphio_la.Rng.int rng 5 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && Graphio_la.Rng.float rng < 0.4 then
          edges := (u, v, 1 + Graphio_la.Rng.int rng 9) :: !edges
      done
    done;
    let net = Dinic.create n in
    List.iter (fun (src, dst, cap) -> Dinic.add_edge net ~src ~dst ~cap) !edges;
    let flow = Dinic.max_flow net ~s:0 ~sink:(n - 1) in
    let brute = brute_force_min_cut n !edges ~s:0 ~sink:(n - 1) in
    Alcotest.(check int) (Printf.sprintf "trial %d" trial) brute flow
  done

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_sizes () =
  let g = Graphio_workloads.Fft.build 4 in
  let part = Partition.balanced g ~part_size:10 in
  Alcotest.(check int) "labelled all" (Dag.n_vertices g) (Array.length part);
  for p = 0 to Partition.count part - 1 do
    Alcotest.(check bool) "size cap" true (Array.length (Partition.members part p) <= 10)
  done;
  (* every vertex in exactly one part *)
  let total =
    List.init (Partition.count part) (fun p -> Array.length (Partition.members part p))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "total" (Dag.n_vertices g) total

let test_partition_part_size_one () =
  let g = Graphio_workloads.Inner_product.build 3 in
  let part = Partition.balanced g ~part_size:1 in
  Alcotest.(check int) "n parts" (Dag.n_vertices g) (Partition.count part)

let test_partition_rejects_zero () =
  let g = Graphio_workloads.Inner_product.build 2 in
  Alcotest.check_raises "zero" (Invalid_argument "Partition.balanced: part_size must be >= 1")
    (fun () -> ignore (Partition.balanced g ~part_size:0))

(* ------------------------------------------------------------------ *)
(* Convex min-cut                                                      *)
(* ------------------------------------------------------------------ *)

let test_wavefront_chain () =
  (* On a simple chain every non-sink vertex has wavefront exactly 1. *)
  let g = Dag.of_edges ~n:5 (List.init 4 (fun i -> (i, i + 1))) in
  for v = 0 to 3 do
    Alcotest.(check int) "chain wavefront" 1 (Convex_mincut.min_wavefront g v)
  done;
  Alcotest.(check int) "sink" 0 (Convex_mincut.min_wavefront g 4)

let test_wavefront_diamond () =
  let g = Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  (* after evaluating 1 (and forced ancestor 0): S = {0,1}; both 0 and 1
     have edges out -> wavefront 2; no smaller convex choice exists. *)
  Alcotest.(check int) "after 1" 2 (Convex_mincut.min_wavefront g 1);
  (* after 0: S can be just {0}: wavefront 1. *)
  Alcotest.(check int) "after 0" 1 (Convex_mincut.min_wavefront g 0);
  Alcotest.(check int) "sink" 0 (Convex_mincut.min_wavefront g 3)

let test_wavefront_wide_fanin () =
  (* k independent sources feeding one sink: after source i is evaluated
     the minimal S is {i} alone -> wavefront 1. *)
  let k = 6 in
  let g = Dag.of_edges ~n:(k + 1) (List.init k (fun i -> (i, k))) in
  for v = 0 to k - 1 do
    Alcotest.(check int) "source wavefront" 1 (Convex_mincut.min_wavefront g v)
  done

let test_wavefront_grid_middle () =
  (* A 2-row ladder forces a wide wavefront in the middle:
     0 -> 1 -> 2 -> 3 (top row), 4 -> 5 -> 6 -> 7 (bottom row),
     plus rungs i -> i+4.  After evaluating 3 (whole top row computed),
     every top vertex with a pending rung contributes. *)
  let top = List.init 3 (fun i -> (i, i + 1)) in
  let bottom = List.init 3 (fun i -> (i + 4, i + 5)) in
  let rungs = List.init 4 (fun i -> (i, i + 4)) in
  let g = Dag.of_edges ~n:8 (top @ bottom @ rungs) in
  (* after 3: minimal downward-closed S containing {0,1,2,3}; can include
     bottom prefix. If S = {0..3}: wavefront = 4 rungs... but including
     bottom vertices closes some rungs: S = {0,1,2,3,4}: 4 still has edge
     to 5: wavefront {1,2,3 rungs} + {4->5} = 4. Exhaustively the minimum
     is 4 (vertex 3 itself is a sink-free?). 3 -> 7 rung pending, etc. *)
  let c = Convex_mincut.min_wavefront g 3 in
  Alcotest.(check bool) "wide middle" true (c >= 2)

(* Brute-force C(v): enumerate all downward-closed sets containing v and
   excluding descendants; minimize boundary vertices. *)
let brute_force_wavefront g v =
  let n = Dag.n_vertices g in
  if Dag.out_degree g v = 0 then 0
  else begin
    let best = ref max_int in
    for mask = 0 to (1 lsl n) - 1 do
      if mask land (1 lsl v) <> 0 then begin
        (* downward-closed? *)
        let ok = ref true in
        Dag.iter_edges g (fun u w ->
            if mask land (1 lsl w) <> 0 && mask land (1 lsl u) = 0 then ok := false);
        (* v's descendants excluded?  (they can't be evaluated before v) *)
        let desc_ok = ref true in
        let rec visit u =
          Dag.iter_succ g u (fun w ->
              if mask land (1 lsl w) <> 0 then desc_ok := false;
              visit w)
        in
        visit v;
        if !ok && !desc_ok then begin
          let boundary = ref 0 in
          for u = 0 to n - 1 do
            if mask land (1 lsl u) <> 0 then begin
              let has_out = ref false in
              Dag.iter_succ g u (fun w ->
                  if mask land (1 lsl w) = 0 then has_out := true);
              if !has_out then incr boundary
            end
          done;
          if !boundary < !best then best := !boundary
        end
      end
    done;
    !best
  end

let test_wavefront_vs_brute_force () =
  let rng = Graphio_la.Rng.create 91 in
  for trial = 1 to 25 do
    let n = 4 + Graphio_la.Rng.int rng 6 in
    let g = Er.gnp ~n ~p:0.35 ~seed:(trial * 101) in
    for v = 0 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "trial %d vertex %d" trial v)
        (brute_force_wavefront g v)
        (Convex_mincut.min_wavefront g v)
    done
  done

let test_bound_formula () =
  let g = Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  (* max wavefront is 2 (vertex 1 or 2); bound = max(0, 2*(2 - M)) *)
  Alcotest.(check int) "M=1" 2 (Convex_mincut.bound g ~m:1);
  Alcotest.(check int) "M=2" 0 (Convex_mincut.bound g ~m:2);
  Alcotest.(check int) "M=5" 0 (Convex_mincut.bound g ~m:5)

let test_bound_detailed () =
  let g = Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let value, best = Convex_mincut.bound_detailed g ~m:1 in
  Alcotest.(check int) "value" 2 value;
  Alcotest.(check int) "wavefront" 2 best.Convex_mincut.wavefront

let test_bound_monotone_in_m () =
  let g = Graphio_workloads.Fft.build 4 in
  let b4 = Convex_mincut.bound g ~m:4 in
  let b8 = Convex_mincut.bound g ~m:8 in
  let b16 = Convex_mincut.bound g ~m:16 in
  Alcotest.(check bool) "monotone" true (b4 >= b8 && b8 >= b16)

let test_bound_partitioned_often_trivial () =
  (* Reproduces the paper's observation: with the suggested 2M part size
     the partitioned baseline is trivial on complex graphs. *)
  let g = Graphio_workloads.Matmul.build 4 in
  let m = 8 in
  let b = Convex_mincut.bound_partitioned g ~m ~part_size:(2 * m) in
  Alcotest.(check int) "trivial" 0 b

let test_empty_graph_bound () =
  let g = Dag.of_edges ~n:0 [] in
  Alcotest.(check int) "empty" 0 (Convex_mincut.bound g ~m:4)

(* ------------------------------------------------------------------ *)
(* Closure network and the pruned sweeps against the reference         *)
(* ------------------------------------------------------------------ *)

let named_graphs =
  let open Graphio_workloads in
  [
    ("fft:4", Fft.build 4);
    ("fft:5", Fft.build 5);
    ("bhk:5", Bhk.build 5);
    ("bhk:7", Bhk.build 7);
    ("grid:6:6", Stencil.grid ~rows:6 ~cols:6);
    ("grid:10:10", Stencil.grid ~rows:10 ~cols:10);
    ("matmul:3", Matmul.build 3);
    ("matmul:4", Matmul.build 4);
  ]

let test_max_wavefront_matches_reference () =
  List.iter
    (fun (name, g) ->
      let value, vertex = Reference.max_wavefront g in
      let m = 2 in
      let b, best = Convex_mincut.bound_detailed g ~m in
      Alcotest.(check (pair int int))
        (name ^ ": value and vertex") (value, vertex)
        (best.Convex_mincut.wavefront, best.Convex_mincut.vertex);
      Alcotest.(check int) (name ^ ": bound") (max 0 (2 * (value - m))) b)
    named_graphs

let test_visit_matches_reference () =
  List.iter
    (fun (name, g) ->
      let chains = Reference.visit_chains g in
      let prof = Graphio_core.Visit_bound.profile g in
      for m = 0 to Dag.n_vertices g do
        Alcotest.(check int)
          (Printf.sprintf "%s: M=%d" name m)
          (Reference.visit_bound chains ~m)
          (Graphio_core.Visit_bound.bound_of_profile prof ~m)
      done)
    (("fft:6 (no sweep)", Graphio_workloads.Fft.build 6) :: named_graphs)

(* Deterministic work of the pruned sweep: a silent fall-back to cutting
   every vertex changes these counts. *)
let test_sweep_cut_counts () =
  let wavefronts = Graphio_obs.Metrics.counter "flow.mincut.wavefronts" in
  let pruned = Graphio_obs.Metrics.counter "flow.mincut.pruned" in
  List.iter
    (fun (name, g, cuts, skipped) ->
      let w0 = Graphio_obs.Metrics.counter_value wavefronts in
      let p0 = Graphio_obs.Metrics.counter_value pruned in
      ignore (Convex_mincut.max_wavefront g);
      let w = Graphio_obs.Metrics.counter_value wavefronts - w0 in
      let p = Graphio_obs.Metrics.counter_value pruned - p0 in
      Alcotest.(check (pair int int)) (name ^ ": cuts, pruned") (cuts, skipped) (w, p);
      Alcotest.(check int) (name ^ ": every vertex accounted") (Dag.n_vertices g) (w + p))
    [
      ("grid:10:10", Graphio_workloads.Stencil.grid ~rows:10 ~cols:10, 1, 99);
      ("bhk:7", Graphio_workloads.Bhk.build 7, 1, 127);
    ]

let test_reused_cut_after_other_vertex () =
  let g = Graphio_workloads.Bhk.build 5 in
  let n = Dag.n_vertices g in
  let net = Closure_net.create g in
  let all = Array.make n true in
  let counted = Closure_net.descendants g 1 in
  List.iter
    (fun (counted, v) ->
      Alcotest.(check int)
        (Printf.sprintf "vertex %d" v)
        (Reference.counted_cut g ~counted v)
        (Closure_net.cut net ~counted v))
    [ (all, n / 2); (counted, 3); (all, 0); (counted, n / 2); (all, n / 2) ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let er_gen =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* seed = int_range 0 10000 in
    return (Er.gnp ~n ~p:0.3 ~seed))

let prop_wavefront_bounded =
  QCheck2.Test.make ~name:"wavefront bounded by n" ~count:50 er_gen (fun g ->
      let ok = ref true in
      for v = 0 to Dag.n_vertices g - 1 do
        let c = Convex_mincut.min_wavefront g v in
        if c < 0 || c > Dag.n_vertices g then ok := false;
        (* a vertex with successors is itself on the wavefront *)
        if Dag.out_degree g v > 0 && c < 1 then ok := false
      done;
      !ok)

let prop_mincut_brute_small =
  QCheck2.Test.make ~name:"convex min-cut matches brute force" ~count:25
    QCheck2.Gen.(
      let* n = int_range 3 9 in
      let* seed = int_range 0 10000 in
      return (Er.gnp ~n ~p:0.4 ~seed))
    (fun g ->
      let ok = ref true in
      for v = 0 to Dag.n_vertices g - 1 do
        if brute_force_wavefront g v <> Convex_mincut.min_wavefront g v then
          ok := false
      done;
      !ok)

let er_any_gen =
  QCheck2.Gen.(
    let* n = int_range 1 36 in
    let* p = float_range 0.03 0.5 in
    let* seed = int_range 0 100000 in
    return (Er.gnp ~n ~p ~seed))

let prop_max_wavefront_reference =
  QCheck2.Test.make ~name:"pruned max wavefront = exhaustive (value, vertex)"
    ~count:150 er_any_gen (fun g ->
      let best = Convex_mincut.max_wavefront g in
      Reference.max_wavefront g = (best.wavefront, best.vertex))

let prop_visit_reference =
  QCheck2.Test.make ~name:"visit bound = reference profile, every M" ~count:60
    er_any_gen (fun g ->
      let chains = Reference.visit_chains g in
      List.for_all
        (fun m -> Graphio_core.Visit_bound.bound g ~m = Reference.visit_bound chains ~m)
        (List.init (Dag.n_vertices g + 1) Fun.id))

let prop_reused_cut =
  QCheck2.Test.make ~name:"reused network cut = fresh network cut" ~count:100
    QCheck2.Gen.(
      let* g = er_any_gen in
      let n = Dag.n_vertices g in
      let* queries =
        list_size (int_range 1 8)
          (pair (int_range 0 (n - 1)) (array_size (return n) bool))
      in
      return (g, queries))
    (fun (g, queries) ->
      let net = Closure_net.create g in
      List.for_all
        (fun (v, counted) ->
          Closure_net.cut net ~counted v = Reference.counted_cut g ~counted v)
        queries)

let prop_upper_bound =
  QCheck2.Test.make ~name:"upper bound >= wavefront" ~count:100 er_any_gen (fun g ->
      let net = Closure_net.create g in
      List.for_all
        (fun v -> Closure_net.upper_bound net v >= Closure_net.wavefront net v)
        (List.init (Dag.n_vertices g) Fun.id))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_wavefront_bounded; prop_mincut_brute_small; prop_max_wavefront_reference;
      prop_visit_reference; prop_reused_cut; prop_upper_bound;
    ]

let () =
  Alcotest.run "graphio_flow"
    [
      ( "dinic",
        [
          Alcotest.test_case "single edge" `Quick test_dinic_single_edge;
          Alcotest.test_case "series bottleneck" `Quick test_dinic_series_bottleneck;
          Alcotest.test_case "parallel paths" `Quick test_dinic_parallel_paths;
          Alcotest.test_case "textbook network" `Quick test_dinic_classic_textbook;
          Alcotest.test_case "disconnected" `Quick test_dinic_disconnected;
          Alcotest.test_case "min cut matches flow" `Quick test_dinic_mincut_matches_flow;
          Alcotest.test_case "zero capacity" `Quick test_dinic_zero_capacity;
          Alcotest.test_case "parallel edges" `Quick test_dinic_parallel_edges;
          Alcotest.test_case "max flow repeatable" `Quick test_dinic_max_flow_repeatable;
          Alcotest.test_case "validation" `Quick test_dinic_validation;
          Alcotest.test_case "vs brute force" `Quick test_dinic_vs_brute_force_random;
        ] );
      ( "partition",
        [
          Alcotest.test_case "balanced sizes" `Quick test_partition_sizes;
          Alcotest.test_case "part size one" `Quick test_partition_part_size_one;
          Alcotest.test_case "rejects zero" `Quick test_partition_rejects_zero;
        ] );
      ( "convex-mincut",
        [
          Alcotest.test_case "chain wavefronts" `Quick test_wavefront_chain;
          Alcotest.test_case "diamond wavefronts" `Quick test_wavefront_diamond;
          Alcotest.test_case "wide fan-in" `Quick test_wavefront_wide_fanin;
          Alcotest.test_case "ladder middle" `Quick test_wavefront_grid_middle;
          Alcotest.test_case "vs brute force" `Quick test_wavefront_vs_brute_force;
          Alcotest.test_case "bound formula" `Quick test_bound_formula;
          Alcotest.test_case "bound detailed" `Quick test_bound_detailed;
          Alcotest.test_case "monotone in M" `Quick test_bound_monotone_in_m;
          Alcotest.test_case "partitioned variant trivial" `Quick
            test_bound_partitioned_often_trivial;
          Alcotest.test_case "empty graph" `Quick test_empty_graph_bound;
        ] );
      ( "closure-net",
        [
          Alcotest.test_case "max wavefront = reference" `Quick
            test_max_wavefront_matches_reference;
          Alcotest.test_case "visit = reference" `Quick test_visit_matches_reference;
          Alcotest.test_case "sweep cut counts" `Quick test_sweep_cut_counts;
          Alcotest.test_case "reused cut after other vertex" `Quick
            test_reused_cut_after_other_vertex;
        ] );
      ("properties", props);
    ]
