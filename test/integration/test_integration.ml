(* Cross-library invariants: every lower bound in the repository must sit
   below every feasible schedule's simulated I/O.  These "sandwich" checks
   tie the whole system together: graph builders, Laplacians, eigensolvers,
   the spectral maximization, the convex min-cut baseline, and the pebble
   simulator all have to agree for them to pass. *)

open Graphio_core
open Graphio_graph
open Graphio_workloads
open Graphio_pebble

let spectral g ~m =
  (Solver.bound g ~m).Solver.result.Spectral_bound.bound

let spectral_std g ~m =
  (Solver.bound ~method_:Solver.Standard g ~m).Solver.result.Spectral_bound.bound

let upper g ~m = (Simulator.best_upper_bound g ~m).Simulator.io

let sandwich name g ~m =
  let u = float_of_int (upper g ~m) in
  let l4 = spectral g ~m in
  let l5 = spectral_std g ~m in
  let cm = float_of_int (Graphio_flow.Convex_mincut.bound g ~m) in
  let vb = float_of_int (Visit_bound.bound g ~m) in
  Alcotest.(check bool) (name ^ ": thm4 <= simulated") true (l4 <= u +. 1e-6);
  Alcotest.(check bool) (name ^ ": thm5 <= simulated") true (l5 <= u +. 1e-6);
  Alcotest.(check bool) (name ^ ": mincut <= simulated") true (cm <= u +. 1e-6);
  Alcotest.(check bool) (name ^ ": visit <= simulated") true (vb <= u +. 1e-6)

let test_sandwich_fft () =
  List.iter (fun (l, m) -> sandwich (Printf.sprintf "fft l=%d M=%d" l m) (Fft.build l) ~m)
    [ (3, 4); (4, 4); (5, 8); (6, 4); (6, 16) ]

let test_sandwich_bhk () =
  List.iter (fun (l, m) -> sandwich (Printf.sprintf "bhk l=%d M=%d" l m) (Bhk.build l) ~m)
    [ (4, 8); (5, 8); (6, 8); (7, 16) ]

let test_sandwich_matmul () =
  List.iter
    (fun (n, m) -> sandwich (Printf.sprintf "matmul n=%d M=%d" n m) (Matmul.build n) ~m)
    [ (2, 4); (3, 8); (4, 8) ]

let test_sandwich_strassen () =
  List.iter
    (fun (n, m) -> sandwich (Printf.sprintf "strassen n=%d M=%d" n m) (Strassen.build n) ~m)
    [ (2, 8); (4, 8) ]

let test_sandwich_inner_product () =
  sandwich "inner product" (Inner_product.build 8) ~m:4

let test_sandwich_er_random () =
  for seed = 1 to 8 do
    let g = Er.gnp ~n:60 ~p:0.12 ~seed in
    let m = max 4 (Simulator.min_feasible_m g) in
    sandwich (Printf.sprintf "er seed=%d" seed) g ~m
  done

let test_sandwich_traced_programs () =
  (* Bound the graphs extracted by the tracer, simulate them, sandwich. *)
  let open Graphio_trace in
  let ctx = Trace.create () in
  let _ = Programs.walsh_hadamard ctx (Array.init 16 float_of_int) in
  sandwich "traced wht" (Trace.graph ctx) ~m:4;
  let ctx2 = Trace.create () in
  let _ = Programs.matmul ctx2 (Array.make_matrix 3 3 1.0) (Array.make_matrix 3 3 2.0) in
  sandwich "traced matmul" (Trace.graph ctx2) ~m:8

(* ------------------------------------------------------------------ *)
(* Dense vs Lanczos backends agree on real workloads                   *)
(* ------------------------------------------------------------------ *)

let test_backends_agree_on_fft () =
  let g = Fft.build 6 in
  (* force both numeric paths over the same Laplacian (closed_form:false:
     the recognizer would otherwise answer before either backend runs) *)
  let dense =
    (Solver.bound ~dense_threshold:100_000 ~closed_form:false g ~m:8)
      .Solver.result
  in
  let lanczos =
    (Solver.bound ~dense_threshold:10 ~closed_form:false g ~m:8).Solver.result
  in
  Alcotest.(check (float 1.0)) "bounds agree"
    dense.Spectral_bound.bound lanczos.Spectral_bound.bound

let test_backends_agree_on_bhk () =
  let g = Bhk.build 9 in
  let dense =
    (Solver.bound ~dense_threshold:100_000 ~closed_form:false g ~m:8)
      .Solver.result
  in
  let lanczos =
    (Solver.bound ~dense_threshold:10 ~closed_form:false g ~m:8).Solver.result
  in
  Alcotest.(check (float 1.0)) "bounds agree"
    dense.Spectral_bound.bound lanczos.Spectral_bound.bound

let test_closed_form_vs_lanczos_butterfly () =
  (* Theorem 5 numerics via Lanczos vs exact closed-form spectrum. *)
  let l = 7 in
  let g = Fft.build l in
  let lanczos =
    (Solver.bound ~method_:Solver.Standard ~dense_threshold:10
       ~closed_form:false g ~m:8)
      .Solver.result
  in
  let closed =
    Solver.bound_of_spectrum
      ~spectrum:(Graphio_spectra.Butterfly_spectra.spectrum l)
      ~scale:0.5 ~n:(Dag.n_vertices g) ~m:8 ()
  in
  Alcotest.(check (float 1.0)) "lanczos matches closed form"
    closed.Spectral_bound.bound lanczos.Spectral_bound.bound

(* ------------------------------------------------------------------ *)
(* The paper's headline comparison: spectral vs convex min-cut          *)
(* ------------------------------------------------------------------ *)

let test_spectral_beats_mincut_on_large_instances () =
  (* Section 6.4: the spectral bound is tighter than convex min-cut on all
     four workloads once the graphs are big enough for the bound to be
     non-trivial.  Representative mid-size instances: *)
  List.iter
    (fun (name, g, m) ->
      let s = spectral g ~m in
      let c = float_of_int (Graphio_flow.Convex_mincut.bound g ~m) in
      Alcotest.(check bool) (name ^ ": spectral >= mincut") true (s >= c))
    [
      ("fft l=9 M=4", Fft.build 9, 4);
      ("bhk l=10 M=16", Bhk.build 10, 16);
    ]

let test_mincut_partitioned_trivial () =
  (* The paper found the 2M-partitioned variant trivial on complex graphs. *)
  List.iter
    (fun (name, g, m) ->
      let b = Graphio_flow.Convex_mincut.bound_partitioned g ~m ~part_size:(2 * m) in
      Alcotest.(check int) name 0 b)
    [
      ("fft", Fft.build 5, 8);
      ("matmul", Matmul.build 4, 8);
    ]

(* ------------------------------------------------------------------ *)
(* Exact sandwich: lower bounds vs the TRUE optimum                    *)
(* ------------------------------------------------------------------ *)

(* On graphs small enough for Exact.optimal_io, the whole lattice of
   quantities must order correctly:

     spectral (Thm 4 and 5)  <=  J*_G  <=  best simulated schedule

   and, per topological order X (the chain behind Theorems 2-4):

     spectral best_raw  <=  partition bound(X)  <=  J_G(X) = simulate(X).

   Note what is NOT asserted: partition(X) vs J*_G is unordered in
   general (the partition bound constrains one schedule, the optimum
   minimizes over all of them), so the two chains are checked separately. *)
let test_exact_sandwich () =
  let eps = 1e-6 in
  let checked = ref 0 in
  for seed = 1 to 30 do
    let n = 6 + (seed * 5 mod 9) in
    let p = 0.10 +. (0.05 *. float_of_int (seed mod 5)) in
    let g = Er.gnp ~n ~p ~seed:(1000 + seed) in
    let mf = Simulator.min_feasible_m g in
    let ms = if n <= 10 then [ mf; mf + 1; mf + 3 ] else [ mf; mf + 2 ] in
    List.iter
      (fun m ->
        (* the state cap keeps one pathological instance from dominating
           the suite; capped-out instances are skipped, and the final
           count assertion keeps the battery honest *)
        match Exact.optimal_io ~max_states:200_000 g ~m with
        | exception Exact.Too_large _ -> ()
        | exact ->
            incr checked;
            let name = Printf.sprintf "seed=%d n=%d M=%d" seed n m in
            let fexact = float_of_int exact in
            let u = upper g ~m in
            Alcotest.(check bool) (name ^ ": exact <= best simulated") true
              (exact <= u);
            let o4 = (Solver.bound g ~m).Solver.result in
            (* every portfolio member — and the portfolio itself — must sit
               below the true optimum; the failure message names the method
               and the instance so a soundness bug is immediately
               attributable *)
            List.iter
              (fun method_ ->
                let b = (Solver.bound ~method_ g ~m).Solver.result in
                Alcotest.(check bool)
                  (Printf.sprintf "%s method=%s: bound <= exact" name
                     (Method.to_string method_))
                  true
                  (b.Spectral_bound.bound <= fexact +. eps))
              Method.all;
            List.iter
              (fun (oname, order) ->
                let _, pv = Partition_bound.best g ~order ~m in
                let sim = (Simulator.simulate g ~order ~m).Simulator.io in
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s: spectral raw <= partition" name oname)
                  true
                  (o4.Spectral_bound.best_raw <= pv +. eps);
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s: partition <= simulated" name oname)
                  true
                  (Float.max 0.0 pv <= float_of_int sim +. eps))
              [
                ("natural", Topo.natural g);
                ("kahn", Topo.kahn g);
                ("dfs", Topo.dfs g);
              ])
      ms
  done;
  (* the battery is vacuous if Too_large ate everything *)
  Alcotest.(check bool)
    (Printf.sprintf "enough exact instances solved (%d)" !checked)
    true (!checked >= 40)

let test_exact_sandwich_structured () =
  (* Same lattice on the structured workloads that fit under the exact
     solver's 20-vertex cap. *)
  let eps = 1e-6 in
  List.iter
    (fun (name, g) ->
      let mf = Simulator.min_feasible_m g in
      List.iter
        (fun m ->
          match Exact.optimal_io ~max_states:200_000 g ~m with
          | exception Exact.Too_large _ -> ()
          | exact ->
              let u = upper g ~m in
              Alcotest.(check bool)
                (Printf.sprintf "%s M=%d: exact <= simulated" name m)
                true (exact <= u);
              List.iter
                (fun method_ ->
                  let b = (Solver.bound ~method_ g ~m).Solver.result in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s M=%d method=%s: bound <= exact" name m
                       (Method.to_string method_))
                    true
                    (b.Spectral_bound.bound <= float_of_int exact +. eps))
                Method.all)
        [ mf; mf + 2 ])
    [
      ("fft l=2", Fft.build 2);
      ("fft l=3", Fft.build 3);
      ("inner d=4", Inner_product.build 4);
      ("inner d=8", Inner_product.build 8);
      ("diamond chain", Dag.of_edges ~n:8
         [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (3, 5); (4, 6); (5, 6); (6, 7) ]);
    ]

(* ------------------------------------------------------------------ *)
(* Parallel exact sandwich: Theorem 6 vs simulated parallel schedules  *)
(* ------------------------------------------------------------------ *)

(* The paper leaves Theorem 6 analytic; here it is sandwiched
   empirically: for every feasible parallel execution (an assignment of
   vertices to p processors plus a global topological order), the
   simulated max-per-processor I/O must dominate the p-processor
   spectral lower bound.  Small graphs only — the simulator enumerates
   concrete schedules, not the optimum, so the oracle is "bound below
   EVERY schedule we can build", minimized over orders x assignments. *)
let test_parallel_sandwich () =
  let eps = 1e-6 in
  let checked = ref 0 in
  let graphs =
    [
      ("fft l=2", Fft.build 2);
      ("fft l=3", Fft.build 3);
      ("inner d=4", Inner_product.build 4);
      ("diamond chain", Dag.of_edges ~n:8
         [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (3, 5); (4, 6); (5, 6); (6, 7) ]);
    ]
    @ List.map
        (fun seed ->
          (Printf.sprintf "er seed=%d" seed, Er.gnp ~n:(12 + (seed mod 8)) ~p:0.2 ~seed))
        [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun (name, g) ->
      let m = max 4 (Simulator.min_feasible_m g) in
      List.iter
        (fun p ->
          let lower =
            (Solver.bound ~p g ~m).Solver.result.Spectral_bound.bound
          in
          let best = ref infinity in
          List.iter
            (fun order ->
              List.iter
                (fun assignment_of ->
                  match
                    Parallel_sim.simulate g
                      ~assignment:(assignment_of g ~order ~p)
                      ~order ~p ~m
                  with
                  | exception Invalid_argument _ ->
                      (* m below this assignment's per-processor
                         feasibility floor: not a legal schedule, so it
                         cannot witness the sandwich *)
                      ()
                  | r ->
                      incr checked;
                      best := Float.min !best (float_of_int r.Parallel_sim.max_io))
                [ Parallel_sim.block_assignment; Parallel_sim.round_robin_assignment ])
            [ Topo.natural g; Topo.kahn g; Topo.dfs g ];
          if !best < infinity then
            Alcotest.(check bool)
              (Printf.sprintf "%s p=%d M=%d: thm6 %.3f <= parallel sim %.3f" name p m
                 lower !best)
              true
              (lower <= !best +. eps))
        [ 2; 4 ])
    graphs;
  Alcotest.(check bool)
    (Printf.sprintf "enough parallel schedules simulated (%d)" !checked)
    true (!checked >= 40)

(* ------------------------------------------------------------------ *)
(* Edgelist round trip through the solver                              *)
(* ------------------------------------------------------------------ *)

let test_serialized_graph_same_bound () =
  let g = Fft.build 5 in
  let g' = Edgelist.of_string (Edgelist.to_string g) in
  Alcotest.(check (float 1e-6)) "same bound" (spectral g ~m:8) (spectral g' ~m:8)

(* ------------------------------------------------------------------ *)
(* Properties: random DAGs through the full pipeline                   *)
(* ------------------------------------------------------------------ *)

let prop_sandwich_random =
  QCheck2.Test.make ~name:"lower bounds below simulated upper (random dags)"
    ~count:20
    QCheck2.Gen.(
      let* n = int_range 10 50 in
      let* seed = int_range 0 10_000 in
      let* p = float_range 0.05 0.3 in
      return (Er.gnp ~n ~p ~seed))
    (fun g ->
      let m = max 4 (Simulator.min_feasible_m g) in
      let u = float_of_int (upper g ~m) in
      spectral g ~m <= u +. 1e-6
      && spectral_std g ~m <= u +. 1e-6
      && float_of_int (Graphio_flow.Convex_mincut.bound g ~m) <= u +. 1e-6)

let prop_thm5_below_thm4 =
  QCheck2.Test.make ~name:"thm5 never exceeds thm4 (random dags)" ~count:25
    QCheck2.Gen.(
      let* n = int_range 5 60 in
      let* seed = int_range 0 10_000 in
      return (Er.gnp ~n ~p:0.2 ~seed))
    (fun g ->
      let m = 4 in
      spectral_std g ~m <= spectral g ~m +. 1e-6)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_sandwich_random; prop_thm5_below_thm4 ]

let () =
  Alcotest.run "graphio_integration"
    [
      ( "sandwich",
        [
          Alcotest.test_case "fft" `Quick test_sandwich_fft;
          Alcotest.test_case "bhk" `Quick test_sandwich_bhk;
          Alcotest.test_case "matmul" `Quick test_sandwich_matmul;
          Alcotest.test_case "strassen" `Quick test_sandwich_strassen;
          Alcotest.test_case "inner product" `Quick test_sandwich_inner_product;
          Alcotest.test_case "er random" `Quick test_sandwich_er_random;
          Alcotest.test_case "traced programs" `Quick test_sandwich_traced_programs;
        ] );
      ( "exact-sandwich",
        [
          Alcotest.test_case "random dags vs true optimum" `Quick test_exact_sandwich;
          Alcotest.test_case "structured workloads vs true optimum" `Quick
            test_exact_sandwich_structured;
          Alcotest.test_case "parallel bound vs simulated schedules" `Quick
            test_parallel_sandwich;
        ] );
      ( "backends",
        [
          Alcotest.test_case "dense = lanczos (fft)" `Quick test_backends_agree_on_fft;
          Alcotest.test_case "dense = lanczos (bhk)" `Quick test_backends_agree_on_bhk;
          Alcotest.test_case "closed form = lanczos" `Quick
            test_closed_form_vs_lanczos_butterfly;
        ] );
      ( "paper-comparisons",
        [
          Alcotest.test_case "spectral beats mincut" `Quick
            test_spectral_beats_mincut_on_large_instances;
          Alcotest.test_case "partitioned mincut trivial" `Quick
            test_mincut_partitioned_trivial;
        ] );
      ( "serialization",
        [ Alcotest.test_case "bound stable over roundtrip" `Quick
            test_serialized_graph_same_bound ] );
      ("properties", props);
    ]
