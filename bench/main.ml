(* Bench harness: regenerates every table/figure of the paper's evaluation
   (Figures 7-11) plus the Section 5 closed-form checks and the Theorem 6
   parallel sweep.  Each section prints the same series the paper plots.

   Usage:
     dune exec bench/main.exe                 -- all sections
     dune exec bench/main.exe -- fig7 fig11   -- selected sections
     dune exec bench/main.exe -- --csv fig8   -- also dump CSV
     dune exec bench/main.exe -- --quick      -- reduced sweeps (CI-sized)
     dune exec bench/main.exe -- -j 4 batch   -- batch driver on a 4-domain pool
     dune exec bench/main.exe -- bechamel     -- micro-benchmarks only

   Absolute numbers differ from the paper's (different machine, different
   eigensolver); the *shapes* are the reproduction target: who wins, how
   bounds grow against the published terms, where the min-cut baseline
   collapses, and how its runtime explodes. *)

open Graphio_graph
open Graphio_workloads
open Graphio_spectra
open Graphio_core

let csv_mode = ref false
let quick = ref false
let json_path = ref None
let njobs = ref 1

(* Sections may publish extra per-section fields into the --json record
   (the batch section records its speedup here); cleared between sections. *)
let extra_json : (string * Graphio_obs.Jsonx.t) list ref = ref []

let emit report =
  Report.print report;
  if !csv_mode then print_string (Report.to_csv report);
  print_newline ()

(* Monotonic clock: wall-clock adjustments (NTP slews, suspend) must not
   corrupt benchmark timings. *)
let time f = Graphio_obs.Clock.time f

let counter_of snapshot name =
  match Graphio_obs.Metrics.find snapshot name with
  | Some (Graphio_obs.Metrics.Counter v) -> v
  | _ -> 0

(* Matvec counts come from the process-wide [la.eigen.matvecs] counter;
   deltas around a run attribute them to it (single-threaded sections
   only — the counter is global). *)
let with_matvecs f =
  let before = counter_of (Graphio_obs.Metrics.snapshot ()) "la.eigen.matvecs" in
  let x, dt = time f in
  let after = counter_of (Graphio_obs.Metrics.snapshot ()) "la.eigen.matvecs" in
  (x, dt, after - before)

(* Eigensolve once per (graph, method), reuse across M values. *)
let spectral_bounds g ~ms =
  let eigenvalues, _ = Solver.spectrum g in
  let n = Dag.n_vertices g in
  List.map
    (fun m -> (Spectral_bound.compute ~n ~m ~eigenvalues ()).Spectral_bound.bound)
    ms

let cells_of_floats = List.map Report.cell_float
let cells_of_ints = List.map Report.cell_int

(* The expensive wavefront maximization is M-independent: do it once.
   Graphs above [mincut_max_vertices] get "-" cells.  The pruned sweep's
   per-vertex upper bounds cost O(n (n + m)) before any max-flow runs: on
   a 2-core x86-64 machine that pass takes 0.4 s on fft:10 (11264 vertices)
   and 1.5 s on fft:11 (24576), whose whole sweep then needs 42 s of
   max-flows.  Every figure graph up to 16384 vertices (fft l <= 10,
   matmul n <= 20, strassen n <= 16, bhk l <= 13) finishes in under
   1.5 s. *)
let mincut_max_vertices = 16_384

let mincut_cells g ~ms =
  if Dag.n_vertices g <= mincut_max_vertices then
    let best = Graphio_flow.Convex_mincut.max_wavefront g in
    cells_of_ints
      (List.map (fun m -> Graphio_flow.Convex_mincut.bound_of_wavefront best ~m) ms)
  else List.map (fun _ -> "-") ms

let simulated g ~ms =
  List.map
    (fun m ->
      (Graphio_pebble.Simulator.best_upper_bound ~extra_orders:1 g ~m)
        .Graphio_pebble.Simulator.io)
    ms

(* ------------------------------------------------------------------ *)
(* Figure 7: FFT                                                       *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  let ms = [ 4; 8; 16 ] in
  let ls = if !quick then [ 3; 4; 5; 6; 7 ] else [ 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ] in
  let r =
    Report.create ~title:"fig7-fft-bound-vs-l: I/O bound vs l for 2^l point FFT"
      ~columns:
        ([ "l"; "n" ]
        @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms
        @ List.map (fun m -> Printf.sprintf "mincut M=%d" m) ms
        @ [ "simulated M=4" ])
  in
  let spectral_series = ref [] in
  List.iter
    (fun l ->
      let g = Fft.build l in
      let spectral = spectral_bounds g ~ms in
      spectral_series := (l, Dag.n_vertices g, spectral) :: !spectral_series;
      let mincut = mincut_cells g ~ms in
      let sim = simulated g ~ms:[ 4 ] in
      Report.add_row r
        (cells_of_ints [ l; Dag.n_vertices g ]
        @ cells_of_floats spectral @ mincut @ cells_of_ints sim))
    ls;
  Report.note r
    (Printf.sprintf
       "min-cut cut off above %d vertices (the sweep's upper-bound pass is quadratic in n)"
       mincut_max_vertices);
  emit r;
  (* bottom panel: spectral bound vs l*2^l *)
  let r2 =
    Report.create
      ~title:"fig7-fft-bound-vs-l2l: spectral bound vs l*2^l (linearity check)"
      ~columns:([ "l"; "l*2^l" ] @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms)
  in
  List.iter
    (fun (l, _, spectral) ->
      Report.add_row r2 (cells_of_ints [ l; l * (1 lsl l) ] @ cells_of_floats spectral))
    (List.rev !spectral_series);
  Report.note r2 "published bound is Omega(l*2^l / log M): columns should grow ~linearly";
  emit r2

(* ------------------------------------------------------------------ *)
(* Figure 8: naive matrix multiplication                               *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  let ms = [ 32; 64; 128 ] in
  let ns = if !quick then [ 4; 6; 8 ] else [ 4; 6; 8; 10; 12; 14; 16; 20 ] in
  let r =
    Report.create ~title:"fig8-matmul-bound-vs-n: I/O bound vs n for n x n naive matmul"
      ~columns:
        ([ "n"; "vertices" ]
        @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms
        @ List.map (fun m -> Printf.sprintf "mincut M=%d" m) ms)
  in
  let series = ref [] in
  List.iter
    (fun n ->
      let g = Matmul.build n in
      let spectral = spectral_bounds g ~ms in
      series := (n, spectral) :: !series;
      let mincut = mincut_cells g ~ms in
      Report.add_row r
        (cells_of_ints [ n; Dag.n_vertices g ] @ cells_of_floats spectral @ mincut))
    ns;
  Report.note r "paper finding reproduced: convex min-cut is trivial (0) on naive matmul";
  emit r;
  let r2 =
    Report.create ~title:"fig8-matmul-bound-vs-n3: spectral bound vs n^3"
      ~columns:([ "n"; "n^3" ] @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms)
  in
  List.iter
    (fun (n, spectral) ->
      Report.add_row r2 (cells_of_ints [ n; n * n * n ] @ cells_of_floats spectral))
    (List.rev !series);
  Report.note r2 "published bound is Omega(n^3/sqrt(M))";
  emit r2

(* ------------------------------------------------------------------ *)
(* Figure 9: Strassen                                                  *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  let ms = [ 8; 16 ] in
  let ns = if !quick then [ 2; 4; 8 ] else [ 2; 4; 8; 16 ] in
  let r =
    Report.create ~title:"fig9-strassen-bound-vs-n: I/O bound vs n for Strassen matmul"
      ~columns:
        ([ "n"; "vertices" ]
        @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms
        @ List.map (fun m -> Printf.sprintf "mincut M=%d" m) ms)
  in
  let series = ref [] in
  List.iter
    (fun n ->
      let g = Strassen.build n in
      let spectral = spectral_bounds g ~ms in
      series := (n, spectral) :: !series;
      let mincut = mincut_cells g ~ms in
      Report.add_row r
        (cells_of_ints [ n; Dag.n_vertices g ] @ cells_of_floats spectral @ mincut))
    ns;
  emit r;
  let r2 =
    Report.create ~title:"fig9-strassen-bound-vs-nlog27: spectral bound vs n^log2(7)"
      ~columns:
        ([ "n"; "n^log2(7)" ] @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms)
  in
  List.iter
    (fun (n, spectral) ->
      let nl7 = Float.pow (float_of_int n) (log 7.0 /. log 2.0) in
      Report.add_row r2
        ([ Report.cell_int n; Report.cell_float nl7 ] @ cells_of_floats spectral))
    (List.rev !series);
  Report.note r2 "published bound is Omega((n/sqrt M)^log2(7) * M)";
  emit r2

(* ------------------------------------------------------------------ *)
(* Figure 10: Bellman-Held-Karp                                        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  let ms = [ 16; 32; 64 ] in
  let ls = if !quick then [ 6; 7; 8; 9; 10 ] else [ 6; 7; 8; 9; 10; 11; 12; 13 ] in
  let r =
    Report.create ~title:"fig10-bhk-bound-vs-l: I/O bound vs l for l-city TSP (BHK)"
      ~columns:
        ([ "l"; "n=2^l" ]
        @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms
        @ List.map (fun m -> Printf.sprintf "mincut M=%d" m) ms)
  in
  let series = ref [] in
  List.iter
    (fun l ->
      let g = Bhk.build l in
      let spectral = spectral_bounds g ~ms in
      series := (l, spectral) :: !series;
      let mincut = mincut_cells g ~ms in
      Report.add_row r (cells_of_ints [ l; 1 lsl l ] @ cells_of_floats spectral @ mincut))
    ls;
  emit r;
  let r2 =
    Report.create ~title:"fig10-bhk-bound-vs-2l-over-l: spectral bound vs 2^l/l"
      ~columns:([ "l"; "2^l/l" ] @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms)
  in
  List.iter
    (fun (l, spectral) ->
      Report.add_row r2
        ([ Report.cell_int l;
           Report.cell_float (float_of_int (1 lsl l) /. float_of_int l) ]
        @ cells_of_floats spectral))
    (List.rev !series);
  Report.note r2 "section 5.1 derives Omega(2^l/l - 2Ml) for this graph";
  emit r2

(* ------------------------------------------------------------------ *)
(* Figure 11: runtime comparison                                       *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  let ls = if !quick then [ 6; 7; 8 ] else [ 6; 7; 8; 9; 10; 11 ] in
  let m = 16 in
  let r =
    Report.create ~title:"fig11-runtime: seconds to compute the bound for l-city BHK"
      ~columns:[ "l"; "n=2^l"; "max-flows"; "spectral (s)"; "convex min-cut (s)" ]
  in
  let max_flows = Graphio_obs.Metrics.counter "flow.dinic.max_flows" in
  List.iter
    (fun l ->
      let g = Bhk.build l in
      let _, spectral_t = time (fun () -> Solver.bound g ~m) in
      let flows0 = Graphio_obs.Metrics.counter_value max_flows in
      let _, mincut_t = time (fun () -> Graphio_flow.Convex_mincut.bound g ~m) in
      Report.add_row r
        [ Report.cell_int l; Report.cell_int (1 lsl l);
          Report.cell_int (Graphio_obs.Metrics.counter_value max_flows - flows0);
          Report.cell_float spectral_t; Report.cell_float mincut_t ])
    ls;
  Report.note r
    "the paper: 8.5 hours (min-cut) vs 98 s (spectral) at l=15, timing one max-flow per \
     vertex; the pruned sweep here runs the max-flows counted above and finds the same max";
  emit r

(* ------------------------------------------------------------------ *)
(* Section 5.1: hypercube closed forms                                 *)
(* ------------------------------------------------------------------ *)

let sec51 () =
  let m = 16 in
  let r =
    Report.create
      ~title:(Printf.sprintf "sec51-hypercube-analytic: closed forms, M = %d" m)
      ~columns:
        [ "l"; "alpha1 formula"; "alpha-optimized"; "exact-spectrum Thm5"; "numeric Thm4" ]
  in
  let ls = if !quick then [ 8; 10; 12 ] else [ 8; 10; 12; 14; 16; 18; 20 ] in
  List.iter
    (fun l ->
      let alpha1 = Analytic.hypercube_alpha1 ~l ~m in
      let best, _ = Analytic.hypercube_best ~l ~m in
      let exact =
        (* all-k search: the hypercube analytics pick k = sums of
           binomials far beyond the paper's h = 100 cap *)
        (Solver.bound_of_spectrum_all_k
           ~spectrum:(Hypercube_spectra.spectrum l)
           ~scale:(1.0 /. float_of_int l)
           ~n:(1 lsl l) ~m ())
          .Spectral_bound.bound
      in
      let numeric =
        if l <= 12 then
          Report.cell_float
            (Solver.bound (Bhk.build l) ~m).Solver.result.Spectral_bound.bound
        else "-"
      in
      Report.add_row r
        [ Report.cell_int l; Report.cell_float alpha1; Report.cell_float best;
          Report.cell_float exact; numeric ])
    ls;
  Report.note r
    "exact-spectrum searches all k over the full hypercube spectrum; analytic zeroes the tail";
  emit r

(* ------------------------------------------------------------------ *)
(* Section 5.2: FFT closed forms and the Hong-Kung gap                 *)
(* ------------------------------------------------------------------ *)

let sec52 () =
  let m = 16 in
  let r =
    Report.create
      ~title:(Printf.sprintf "sec52-fft-analytic: closed forms, M = %d" m)
      ~columns:
        [ "l"; "analytic 5.2"; "exact-spectrum Thm5"; "hong-kung l*2^l/log2M"; "ratio" ]
  in
  let ls = if !quick then [ 10; 14; 18 ] else [ 10; 12; 14; 16; 18; 20; 24; 28; 32 ] in
  List.iter
    (fun l ->
      let analytic = Float.max 0.0 (fst (Analytic.fft_best ~l ~m)) in
      let exact =
        (Solver.bound_of_spectrum_all_k
           ~spectrum:(Butterfly_spectra.spectrum l)
           ~scale:0.5
           ~n:(Butterfly_spectra.n_vertices l)
           ~m ())
          .Spectral_bound.bound
      in
      let hk = Analytic.fft_hong_kung ~l ~m in
      Report.add_row r
        [ Report.cell_int l; Report.cell_float analytic; Report.cell_float exact;
          Report.cell_float hk; Report.cell_float (exact /. hk) ])
    ls;
  Report.note r
    "the ratio column approaches ~1/log2(M) scale as l grows (paper: 1/log M factor)";
  emit r

(* ------------------------------------------------------------------ *)
(* Section 5.3: Erdos-Renyi                                            *)
(* ------------------------------------------------------------------ *)

let sec53 () =
  let m = 4 in
  let p0 = 8.0 in
  let r =
    Report.create
      ~title:
        (Printf.sprintf "sec53-er-random: sparse regime p=%.0f*log n/(n-1), M=%d" p0 m)
      ~columns:[ "n"; "lambda2"; "dmax"; "measured k=2 bound"; "formula 5.3" ]
  in
  let ns = if !quick then [ 100; 200 ] else [ 100; 200; 400; 800 ] in
  let k2_bound g lambda2 =
    let n = Dag.n_vertices g in
    let dmax = Dag.max_out_degree g in
    Float.max 0.0
      ((float_of_int (n / 2) *. lambda2 /. float_of_int dmax)
      -. (4.0 *. float_of_int m))
  in
  List.iter
    (fun n ->
      let p = Er.connectivity_regime_p ~n ~p0 in
      let g = Er.gnp_connected ~n ~p ~seed:(n * 13) ~max_attempts:100 in
      let lap = Laplacian.standard g in
      let lambda2 =
        Float.max 0.0 (Graphio_la.Eigen.smallest ~h:2 lap).Graphio_la.Eigen.values.(1)
      in
      Report.add_row r
        [ Report.cell_int n; Report.cell_float lambda2;
          Report.cell_int (Dag.max_out_degree g);
          Report.cell_float (k2_bound g lambda2);
          Report.cell_float (Analytic.er_sparse ~n ~p0 ~m) ])
    ns;
  emit r;
  let r2 =
    Report.create
      ~title:(Printf.sprintf "sec53-er-random: dense regime p=0.5, M=%d" m)
      ~columns:[ "n"; "lambda2"; "measured k=2 bound"; "n/2 - 4M" ]
  in
  List.iter
    (fun n ->
      let g = Er.gnp_connected ~n ~p:0.5 ~seed:(n * 29) ~max_attempts:20 in
      let lap = Laplacian.standard g in
      let lambda2 =
        Float.max 0.0 (Graphio_la.Eigen.smallest ~h:2 lap).Graphio_la.Eigen.values.(1)
      in
      Report.add_row r2
        [ Report.cell_int n; Report.cell_float lambda2;
          Report.cell_float (k2_bound g lambda2);
          Report.cell_float (Analytic.er_dense ~n ~m) ])
    ns;
  Report.note r2 "measured k=2 bound approaches the n/2 - 4M asymptote from below";
  emit r2

(* ------------------------------------------------------------------ *)
(* Theorem 6: parallel bounds                                          *)
(* ------------------------------------------------------------------ *)

let thm6 () =
  let r =
    Report.create ~title:"thm6-parallel: per-processor bound vs p"
      ~columns:[ "graph"; "p=1"; "p=2"; "p=4"; "p=8"; "p=16" ]
  in
  let ps = [ 1; 2; 4; 8; 16 ] in
  let row name n eigenvalues =
    let bounds =
      List.map
        (fun p ->
          (Spectral_bound.compute ~n ~m:8 ~p ~eigenvalues ()).Spectral_bound.bound)
        ps
    in
    Report.add_row r (name :: List.map Report.cell_float bounds)
  in
  let fft_l = if !quick then 8 else 9 in
  let g = Fft.build fft_l in
  let eigs, _ = Solver.spectrum g in
  row (Printf.sprintf "fft l=%d (numeric)" fft_l) (Dag.n_vertices g) eigs;
  let l = 16 in
  let closed =
    Multiset.smallest (Butterfly_spectra.spectrum l) ~h:100
    |> Array.map (fun x -> x /. 2.0)
  in
  row "fft l=16 (closed form, Thm5)" (Butterfly_spectra.n_vertices l) closed;
  let bg = Bhk.build 10 in
  let eigs_b, _ = Solver.spectrum bg in
  row "bhk l=10 (numeric)" (Dag.n_vertices bg) eigs_b;
  (* empirical side: a simulated parallel execution's busiest processor *)
  let sim_row name g m =
    let order = Topo.natural g in
    let cells =
      List.map
        (fun p ->
          let assignment = Graphio_pebble.Parallel_sim.block_assignment g ~order ~p in
          let r = Graphio_pebble.Parallel_sim.simulate g ~assignment ~order ~p ~m in
          Report.cell_int r.Graphio_pebble.Parallel_sim.max_io)
        ps
    in
    Report.add_row r (name :: cells)
  in
  sim_row "fft l=9 simulated max-proc I/O" (Fft.build fft_l) 8;
  sim_row "bhk l=10 simulated max-proc I/O" bg 16;
  Report.note r "Theorem 6: at least one of p processors incurs this much I/O";
  Report.note r
    "simulated rows: block-partitioned parallel executions; each upper-bounds its bound row";
  emit r

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                  *)
(* ------------------------------------------------------------------ *)

let ablations () =
  (* 1. h (number of eigenvalues) vs bound strength: section 6.5's claim
     that modest h loses nothing. *)
  let g = Fft.build (if !quick then 7 else 9) in
  let n = Dag.n_vertices g in
  let eigenvalues, _ = Solver.spectrum ~h:256 g in
  let r =
    Report.create
      ~title:"ablation-h: bound strength vs number of eigenvalues h (FFT, M=4)"
      ~columns:[ "h"; "bound"; "best k" ]
  in
  List.iter
    (fun h ->
      let eigs = Array.sub eigenvalues 0 (min h (Array.length eigenvalues)) in
      let b = Spectral_bound.compute ~n ~m:4 ~eigenvalues:eigs () in
      Report.add_row r
        [ Report.cell_int h; Report.cell_float b.Spectral_bound.bound;
          Report.cell_int b.Spectral_bound.best_k ])
    [ 4; 8; 16; 32; 64; 100; 128; 256 ];
  Report.note r "the paper sets h=100; beyond the best k, extra eigenvalues change nothing";
  emit r;
  (* 2. Theorem 4 vs Theorem 5 tightness across workloads. *)
  let r2 =
    Report.create
      ~title:"ablation-method: Theorem 4 (normalized) vs Theorem 5 (standard)"
      ~columns:[ "graph"; "M"; "thm4"; "thm5" ]
  in
  List.iter
    (fun (name, g, m) ->
      let b4 = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let b5 =
        (Solver.bound ~method_:Solver.Standard g ~m).Solver.result.Spectral_bound.bound
      in
      Report.add_row r2
        [ name; Report.cell_int m; Report.cell_float b4; Report.cell_float b5 ])
    [
      ("fft l=8", Fft.build 8, 4);
      ("bhk l=10", Bhk.build 10, 16);
      ("matmul n=8", Matmul.build 8, 32);
      ("strassen n=8", Strassen.build 8, 8);
    ];
  Report.note r2 "Thm 5 trades tightness for closed-form convenience; never tighter than Thm 4";
  emit r2;
  (* 3. graph-shape ablation: n-ary vs binary dot-product sums. *)
  let r3 =
    Report.create ~title:"ablation-sum-shape: matmul with n-ary vs binary sums (M=16)"
      ~columns:[ "n"; "n-ary bound"; "binary bound" ]
  in
  List.iter
    (fun n ->
      let a = (Solver.bound (Matmul.build n) ~m:16).Solver.result.Spectral_bound.bound in
      let b =
        (Solver.bound (Matmul.build_binary_sums n) ~m:16).Solver.result.Spectral_bound.bound
      in
      Report.add_row r3 [ Report.cell_int n; Report.cell_float a; Report.cell_float b ])
    [ 10; 12; 14; 16 ];
  emit r3

(* ------------------------------------------------------------------ *)
(* Relaxation gap: Theorem 4 (orthogonal relaxation) vs Theorem 2      *)
(* evaluated on concrete schedules                                     *)
(* ------------------------------------------------------------------ *)

let relaxation () =
  let r =
    Report.create
      ~title:"relaxation: spectral bound vs exact partition bound on real schedules"
      ~columns:
        [ "graph"; "M"; "spectral (Thm 4)"; "partition best-X"; "partition worst-X";
          "simulated" ]
  in
  List.iter
    (fun (name, g, m) ->
      let spectral = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let orders =
        [ Topo.natural g; Topo.kahn g; Topo.dfs g; Topo.random ~seed:11 g ]
      in
      let values =
        List.map (fun order -> snd (Partition_bound.best g ~order ~m)) orders
      in
      let best = List.fold_left Float.max neg_infinity values in
      let worst = List.fold_left Float.min infinity values in
      let sim =
        (Graphio_pebble.Simulator.best_upper_bound ~extra_orders:1 g ~m)
          .Graphio_pebble.Simulator.io
      in
      Report.add_row r
        [ name; Report.cell_int m;
          Report.cell_float spectral;
          Report.cell_float (Float.max 0.0 worst);
          Report.cell_float (Float.max 0.0 best);
          Report.cell_int sim ])
    [
      ("fft l=7", Fft.build 7, 4);
      ("fft l=8", Fft.build 8, 4);
      ("bhk l=9", Bhk.build 9, 16);
      ("matmul n=6", Matmul.build 6, 32);
      ("strassen n=4", Strassen.build 4, 8);
    ];
  Report.note r
    "spectral <= partition value for every schedule and k (the relaxation direction)";
  Report.note r
    "columns 4-5 show min/max over {natural, kahn, dfs, random} schedules";
  emit r

(* ------------------------------------------------------------------ *)
(* Workload gallery: the extended families                             *)
(* ------------------------------------------------------------------ *)

let gallery () =
  let r =
    Report.create
      ~title:"gallery: spectral bound vs simulated I/O across graph shapes (M=8)"
      ~columns:
        [ "graph"; "n"; "edges"; "depth"; "spectral"; "simulated"; "fiedler"; "searched" ]
  in
  let m = 8 in
  List.iter
    (fun (name, g) ->
      let m = max m (Graphio_pebble.Simulator.min_feasible_m g) in
      let spectral = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let sim =
        (Graphio_pebble.Simulator.best_upper_bound ~extra_orders:1 g ~m)
          .Graphio_pebble.Simulator.io
      in
      let searched =
        (Graphio_pebble.Schedule_search.optimize ~budget:80 g ~m)
          .Graphio_pebble.Schedule_search.result
          .Graphio_pebble.Simulator.io
      in
      let fiedler =
        (Graphio_pebble.Spectral_order.upper_bound g ~m).Graphio_pebble.Simulator.io
      in
      Report.add_row r
        [ name; Report.cell_int (Dag.n_vertices g); Report.cell_int (Dag.n_edges g);
          Report.cell_int (Stats.compute g).Stats.depth; Report.cell_float spectral;
          Report.cell_int sim; Report.cell_int fiedler; Report.cell_int searched ])
    [
      ("fft l=8 (butterfly)", Fft.build 8);
      ("bitonic l=5", Bitonic.build 5);
      ("bhk l=9 (hypercube)", Bhk.build 9);
      ("matmul n=6", Matmul.build 6);
      ("strassen n=4", Strassen.build 4);
      ("stencil 64x16", Stencil.build ~width:64 ~steps:16 ());
      ("pyramid 48", Stencil.pyramid 48);
      ("reduction 512", Reduction.build 512);
      ("prefix-sum 512", Sequences.prefix_sum 512);
      ("horner d=100", Sequences.horner 100);
      ("er n=500 p=0.02", Er.gnp ~n:500 ~p:0.02 ~seed:3);
    ];
  Report.note r "sequential shapes (reduction/scan/horner) rightly bound to ~0";
  Report.note r
    "'fiedler' = schedule ordered by the Fiedler vector of the same Laplacian the bound uses";
  Report.note r "'searched' = hill-climbed schedule (upper bounds only tighten)";
  emit r;
  (* Figures 1-6 as DOT files. *)
  let outdir = "bench_figures" in
  (try Unix.mkdir outdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let export name ?order ?partition g =
    Dot.to_file ?order ?partition (Filename.concat outdir (name ^ ".dot")) g
  in
  export "figure1-inner-product" (Inner_product.build 2);
  let fig2, fig2_partition = Inner_product.figure2 () in
  export "figure2-partition" ~order:(Topo.natural fig2) ~partition:fig2_partition fig2;
  export "figure4-bhk-3cities" (Bhk.build 3);
  export "figure5-fft-4pt" (Fft.build 2);
  export "figure6a-fft-8pt" (Fft.build 3);
  export "figure6b-matmul-2x2" (Matmul.build 2);
  export "figure6c-strassen-2x2" (Strassen.build 2);
  export "figure6d-bhk-5cities" (Bhk.build 5);
  Printf.printf "wrote Figure 1-6 DOT files to %s/\n\n" outdir

(* ------------------------------------------------------------------ *)
(* Sandwich validation                                                 *)
(* ------------------------------------------------------------------ *)

let sandwich () =
  let r =
    Report.create ~title:"sandwich: every lower bound below a simulated schedule's I/O"
      ~columns:[ "graph"; "M"; "spectral"; "mincut"; "simulated"; "ok" ]
  in
  List.iter
    (fun (name, g, m) ->
      let s = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let c = Graphio_flow.Convex_mincut.bound g ~m in
      let u =
        (Graphio_pebble.Simulator.best_upper_bound g ~m).Graphio_pebble.Simulator.io
      in
      let ok = s <= float_of_int u +. 1e-6 && c <= u in
      Report.add_row r
        [ name; Report.cell_int m; Report.cell_float s; Report.cell_int c;
          Report.cell_int u; string_of_bool ok ])
    [
      ("fft l=8", Fft.build 8, 4);
      ("fft l=8", Fft.build 8, 16);
      ("bhk l=9", Bhk.build 9, 16);
      ("matmul n=6", Matmul.build 6, 32);
      ("strassen n=4", Strassen.build 4, 8);
    ];
  emit r

(* ------------------------------------------------------------------ *)
(* Tightness at small sizes: lower bounds vs the true optimum          *)
(* ------------------------------------------------------------------ *)

let tightness () =
  let r =
    Report.create
      ~title:"tightness: lower bounds vs the exact optimum J* (tiny graphs)"
      ~columns:
        [ "graph"; "n"; "M"; "spectral"; "mincut"; "partition"; "J* (exact)";
          "simulated" ]
  in
  let cases =
    [
      ("fft l=2", Fft.build 2, 3);
      ("inner d=4", Inner_product.build 4, 3);
      ("pyramid 5", Stencil.pyramid 5, 3);
      ("bhk l=4", Bhk.build 4, 5);
      ("matmul n=2", Matmul.build 2, 4);
      ("er n=14", Er.gnp ~n:14 ~p:0.35 ~seed:4, 5);
      ("er n=16", Er.gnp ~n:16 ~p:0.3 ~seed:9, 4);
    ]
  in
  List.iter
    (fun (name, g, m) ->
      let m = max m (Graphio_pebble.Simulator.min_feasible_m g) in
      let spectral = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let mincut = Graphio_flow.Convex_mincut.bound g ~m in
      let partition =
        List.fold_left
          (fun acc order -> Float.max acc (snd (Partition_bound.best g ~order ~m)))
          0.0
          [ Topo.natural g; Topo.kahn g; Topo.dfs g ]
      in
      let exact =
        match Graphio_pebble.Exact.optimal_io g ~m with
        | io -> Report.cell_int io
        | exception Graphio_pebble.Exact.Too_large _ -> "-"
      in
      let sim =
        (Graphio_pebble.Simulator.best_upper_bound g ~m).Graphio_pebble.Simulator.io
      in
      Report.add_row r
        [ name; Report.cell_int (Dag.n_vertices g); Report.cell_int m;
          Report.cell_float spectral; Report.cell_int mincut;
          Report.cell_float (Float.max 0.0 partition); exact;
          Report.cell_int sim ])
    cases;
  Report.note r
    "J* computed by exhaustive state search — the paper's figures never had the true optimum";
  Report.note r
    "partition column is max over {natural,kahn,dfs}: a bound on those schedules, not on J*";
  emit r

(* ------------------------------------------------------------------ *)
(* Batch bound driver: Solver.bound_batch sequential vs domain pool    *)
(* ------------------------------------------------------------------ *)

let batch () =
  let ms = [ 8; 16 ] in
  let ls_fft = if !quick then [ 5; 6; 7 ] else [ 6; 7; 8; 9 ] in
  let ls_bhk = if !quick then [ 6; 7; 8 ] else [ 7; 8; 9; 10 ] in
  let jobs_of build ls =
    List.concat_map
      (fun l ->
        let g = build l in
        List.concat_map
          (fun m ->
            [ Solver.job g ~m; Solver.job ~method_:Solver.Standard g ~m ])
          ms)
      ls
  in
  let jobs = Array.of_list (jobs_of Fft.build ls_fft @ jobs_of Bhk.build ls_bhk) in
  (* the closed-form tier would answer every FFT/BHK job without a single
     matvec (and the recorded matvec counts would all be 0): force the
     numeric tier so the sweep actually measures the eigensolver and its
     parallel scaling *)
  let run pool =
    Solver.bound_batch ?pool ~dense_threshold:100 ~closed_form:false jobs
  in
  let _, seq_s, seq_matvecs = with_matvecs (fun () -> run None) in
  let j = max 1 !njobs in
  let results, par_s, par_matvecs =
    with_matvecs (fun () ->
        if j = 1 then run None
        else
          Graphio_par.Pool.with_pool ~size:j (fun pool -> run (Some pool)))
  in
  let hits = Array.fold_left (fun a r -> if r.Solver.cache_hit then a + 1 else a) 0 results in
  let ncores = Domain.recommended_domain_count () in
  let speedup = seq_s /. par_s in
  let r =
    Report.create
      ~title:
        (Printf.sprintf
           "batch: bound_batch FFT/BHK sweep, sequential vs %d-domain pool (%d cores)"
           j ncores)
      ~columns:[ "quantity"; "value" ]
  in
  Report.add_row r [ "jobs"; Report.cell_int (Array.length jobs) ];
  Report.add_row r [ "spectrum cache hits"; Report.cell_int hits ];
  Report.add_row r [ "sequential (s)"; Report.cell_float seq_s ];
  Report.add_row r [ Printf.sprintf "pool j=%d (s)" j; Report.cell_float par_s ];
  Report.add_row r [ "speedup"; Report.cell_float speedup ];
  Report.add_row r [ "matvecs (sequential)"; Report.cell_int seq_matvecs ];
  Report.add_row r [ Printf.sprintf "matvecs (pool j=%d)" j; Report.cell_int par_matvecs ];
  Report.note r
    "same bounds either way (bitwise-deterministic parallel matvec); speedup tracks physical cores";
  Report.note r
    "equal matvec counts: the pool changes who runs the matvec, never how many run";
  emit r;
  extra_json :=
    [
      ("jobs", Graphio_obs.Jsonx.Int (Array.length jobs));
      ("j", Graphio_obs.Jsonx.Int j);
      ("ncores", Graphio_obs.Jsonx.Int ncores);
      ("seq_s", Graphio_obs.Jsonx.Float seq_s);
      ("par_s", Graphio_obs.Jsonx.Float par_s);
      ("speedup", Graphio_obs.Jsonx.Float speedup);
      ("seq_matvecs", Graphio_obs.Jsonx.Int seq_matvecs);
      ("par_matvecs", Graphio_obs.Jsonx.Int par_matvecs);
    ]

(* ------------------------------------------------------------------ *)
(* Serve: cold vs warm request latency through the bound service       *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let serve () =
  let open Graphio_server in
  let tmp base suffix =
    let p = Filename.temp_file base suffix in
    Sys.remove p;
    p
  in
  let sock = tmp "graphio_bench_serve" ".sock" in
  let dir = tmp "graphio_bench_spectra" "" in
  Unix.mkdir dir 0o700;
  let transport = Server.Unix_socket sock in
  let cfg =
    {
      (Server.default_config transport) with
      Server.pool_size = max 1 !njobs;
      cache = Graphio_cache.Spectrum.create ~dir ();
    }
  in
  let listening = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~ready:(fun () -> Atomic.set listening true) cfg)
  in
  while not (Atomic.get listening) do
    Unix.sleepf 0.001
  done;
  (* both Laplacians per graph: every query in a pass is a distinct
     spectrum, so the cold pass pays one eigensolve per query and the
     warm pass pays none *)
  let queries =
    let specs =
      if !quick then [ ("fft:6", 8); ("fft:7", 8); ("bhk:7", 16); ("bhk:8", 16) ]
      else
        [ ("fft:8", 8); ("fft:9", 8); ("bhk:9", 16); ("bhk:10", 16);
          ("matmul:6", 32) ]
    in
    List.concat_map
      (fun (spec, m) ->
        [ Printf.sprintf {|{"spec":%S,"m":%d}|} spec m;
          Printf.sprintf {|{"spec":%S,"m":%d,"method":"standard"}|} spec m ])
      specs
  in
  let pass () =
    let c = Client.connect transport in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        List.map
          (fun q ->
            let reply, dt = time (fun () -> Client.rpc c q) in
            let hit =
              match
                Graphio_obs.Jsonx.(member "cache_hit" (of_string reply))
              with
              | Some (Graphio_obs.Jsonx.Bool b) -> b
              | _ -> false
            in
            (hit, dt))
          queries)
  in
  let cold = pass () in
  let warm = pass () in
  (* one {"op":"metrics"} before shutdown: the server-side latency
     quantiles and GC gauges of the passes above land in the bench
     record, so BENCH_*.json tracks tail latency across versions *)
  let latency, gc_stats =
    let c = Client.connect transport in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let json = Graphio_obs.Jsonx.of_string (Client.rpc c {|{"op":"metrics"}|}) in
        let lat name =
          match Graphio_obs.Jsonx.member "latency" json with
          | Some l -> (
              match Graphio_obs.Jsonx.member name l with
              | Some (Graphio_obs.Jsonx.Float f) -> f
              | Some (Graphio_obs.Jsonx.Int i) -> float_of_int i
              | _ -> 0.0)
          | None -> 0.0
        in
        let snap =
          match Graphio_obs.Jsonx.member "metrics" json with
          | Some m -> Graphio_obs.Metrics.of_json m
          | None -> []
        in
        let g name =
          match Graphio_obs.Metrics.find snap name with
          | Some (Graphio_obs.Metrics.Gauge v) -> v
          | _ -> 0.0
        in
        ( (lat "p50_s", lat "p95_s", lat "p99_s"),
          ( g "runtime.gc.heap_words",
            g "runtime.gc.minor_collections",
            g "runtime.gc.major_collections" ) ))
  in
  (let c = Client.connect transport in
   ignore (Client.rpc c {|{"op":"shutdown"}|});
   Client.close c);
  Domain.join server;
  if Sys.file_exists sock then Sys.remove sock;
  rm_rf dir;
  let total l = List.fold_left (fun a (_, dt) -> a +. dt) 0.0 l in
  let hits l = List.length (List.filter fst l) in
  let nq = List.length queries in
  let cold_s = total cold and warm_s = total warm in
  let speedup = cold_s /. warm_s in
  let r =
    Report.create
      ~title:
        (Printf.sprintf
           "serve: cold vs warm latency through the bound service (%d queries, pool j=%d)"
           nq (max 1 !njobs))
      ~columns:[ "quantity"; "value" ]
  in
  Report.add_row r [ "queries"; Report.cell_int nq ];
  Report.add_row r [ "cold pass (s)"; Report.cell_float cold_s ];
  Report.add_row r [ "warm pass (s)"; Report.cell_float warm_s ];
  Report.add_row r [ "warm cache hits"; Report.cell_int (hits warm) ];
  Report.add_row r [ "speedup (cold/warm)"; Report.cell_float speedup ];
  let p50, p95, p99 = latency in
  let heap_words, minor_gcs, major_gcs = gc_stats in
  Report.add_row r [ "request p50 (s)"; Report.cell_float p50 ];
  Report.add_row r [ "request p95 (s)"; Report.cell_float p95 ];
  Report.add_row r [ "request p99 (s)"; Report.cell_float p99 ];
  Report.add_row r [ "gc major collections"; Report.cell_int (int_of_float major_gcs) ];
  Report.note r
    "warm answers come from the two-tier spectrum cache; the residue is protocol + socket cost";
  emit r;
  extra_json :=
    [
      ("queries", Graphio_obs.Jsonx.Int nq);
      ("cold_s", Graphio_obs.Jsonx.Float cold_s);
      ("warm_s", Graphio_obs.Jsonx.Float warm_s);
      ("warm_hits", Graphio_obs.Jsonx.Int (hits warm));
      ("speedup", Graphio_obs.Jsonx.Float speedup);
      ("p50_s", Graphio_obs.Jsonx.Float p50);
      ("p95_s", Graphio_obs.Jsonx.Float p95);
      ("p99_s", Graphio_obs.Jsonx.Float p99);
      ("gc_heap_words", Graphio_obs.Jsonx.Float heap_words);
      ("gc_minor_collections", Graphio_obs.Jsonx.Float minor_gcs);
      ("gc_major_collections", Graphio_obs.Jsonx.Float major_gcs);
    ]

(* ------------------------------------------------------------------ *)
(* Recognizer: closed-form spectrum dispatch vs forced numeric solve   *)
(* ------------------------------------------------------------------ *)

let recognize () =
  let cases =
    if !quick then
      [
        ("butterfly fft:7", Fft.build 7);
        ("hypercube bhk:8", Bhk.build 8);
        ("path path:256", Sequences.independent_chains ~count:1 ~length:256);
        ("grid grid:12:12", Stencil.grid ~rows:12 ~cols:12);
      ]
    else
      [
        ("butterfly fft:8", Fft.build 8);
        ("hypercube bhk:10", Bhk.build 10);
        ("path path:1024", Sequences.independent_chains ~count:1 ~length:1024);
        ("grid grid:24:24", Stencil.grid ~rows:24 ~cols:24);
      ]
  in
  let m = 8 in
  let r =
    Report.create
      ~title:"recognize: closed-form spectrum dispatch vs numeric eigensolve (Thm 5)"
      ~columns:[ "graph"; "n"; "tier"; "closed (s)"; "numeric (s)"; "speedup"; "agree" ]
  in
  let fields = ref [] in
  List.iter
    (fun (name, g) ->
      let closed_o, closed_s =
        time (fun () -> Solver.bound ~method_:Solver.Standard g ~m)
      in
      let numeric_o, numeric_s =
        time (fun () ->
            Solver.bound ~method_:Solver.Standard ~closed_form:false g ~m)
      in
      let cb = closed_o.Solver.result.Spectral_bound.bound
      and nb = numeric_o.Solver.result.Spectral_bound.bound in
      let agree = Float.abs (cb -. nb) <= 1e-6 *. (1.0 +. Float.abs nb) in
      let slug = String.map (fun c -> if c = ' ' then '_' else c) name in
      fields :=
        (slug ^ "_speedup", Graphio_obs.Jsonx.Float (numeric_s /. closed_s))
        :: (slug ^ "_closed_s", Graphio_obs.Jsonx.Float closed_s)
        :: (slug ^ "_numeric_s", Graphio_obs.Jsonx.Float numeric_s)
        :: !fields;
      Report.add_row r
        [ name; Report.cell_int (Dag.n_vertices g);
          Solver.tier_name closed_o.Solver.tier; Report.cell_float closed_s;
          Report.cell_float numeric_s;
          Report.cell_float (numeric_s /. closed_s); string_of_bool agree ])
    cases;
  Report.note r
    "closed rows pay recognition (linear) instead of an eigensolve (cubic dense)";
  Report.note r "'agree' checks the dispatched bound against the numeric bound";
  emit r;
  extra_json := List.rev !fields

(* ------------------------------------------------------------------ *)
(* Eigensolver hot path: CSR kernel, adaptive degree, warm starts      *)
(* ------------------------------------------------------------------ *)

(* Three workload families through the sparse eigensolver, four sub-runs
   each:
     1. old kernel (float arrays), fixed degree 20   - the reference
     2. new kernel (Bigarray CSR),  fixed degree 20  - must be bitwise
        identical to 1 at identical matvec count; only wall time may move
     3. new kernel, auto degree, cold                - fewer matvecs at
        equal bound accuracy
     4. new kernel, auto degree, warm-started from a donor solve at a
        smaller h (the cross-h Ritz reuse the cache tier performs)
   The per-family matvec counts are deterministic (fixed seed, bitwise
   matvec) — scripts/check_eigen_baseline.sh pins the quick-mode counts
   against bench/eigen_baseline.json in CI. *)

let perturbed_grid ~rows ~cols =
  let b = Dag.Builder.create ~capacity_hint:(rows * cols) () in
  for _ = 1 to rows * cols do
    ignore (Dag.Builder.add_vertex b)
  done;
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = (i * cols) + j in
      if i > 0 then Dag.Builder.add_edge b (v - cols) v;
      if j > 0 then Dag.Builder.add_edge b (v - 1) v;
      (* every 7th cell gains a diagonal shortcut: still a DAG (edges only
         increase the row-major index), no longer a recognizable grid *)
      if i < rows - 1 && j < cols - 1 && v mod 7 = 0 then
        Dag.Builder.add_edge b v (v + cols + 1)
    done
  done;
  Dag.Builder.build b

let eigen () =
  let open Graphio_la in
  let families =
    if !quick then
      [ ("bhk", Bhk.build 8);
        ("grid_perturbed", perturbed_grid ~rows:16 ~cols:16);
        ("random_dag", Er.gnp ~n:300 ~p:0.03 ~seed:7) ]
    else
      [ ("bhk", Bhk.build 9);
        ("grid_perturbed", perturbed_grid ~rows:24 ~cols:24);
        ("random_dag", Er.gnp ~n:600 ~p:0.02 ~seed:7) ]
  in
  let h = if !quick then 32 else 64 in
  let h_donor = if !quick then 24 else 48 in
  let solve ?kernel ?init ?(want_vectors = false) ~degree ~h lap =
    (* dense_threshold 0: always the sparse path — that is the hot path
       under measurement *)
    Eigen.smallest ~h ~dense_threshold:0 ~filter_degree:degree ?kernel ?init
      ~want_vectors lap
  in
  let matvecs s =
    match s.Eigen.stats with Some st -> st.Eigen.matvecs | None -> 0
  in
  let bitwise_equal a b =
    Array.length a = Array.length b
    && begin
         let ok = ref true in
         Array.iteri
           (fun i x ->
             if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
               ok := false)
           a;
         !ok
       end
  in
  let r =
    Report.create
      ~title:
        (Printf.sprintf
           "eigen: matvec kernel / adaptive degree / warm start (sparse path, h=%d)"
           h)
      ~columns:
        [ "family"; "n"; "old (s)"; "new (s)"; "bitwise"; "fixed mv";
          "auto mv"; "warm mv"; "auto red"; "warm red"; "accurate" ]
  in
  let fields = ref [] in
  List.iter
    (fun (name, g) ->
      let lap = Laplacian.standard g in
      let n = Dag.n_vertices g in
      let old_s, old_t =
        time (fun () ->
            solve ~kernel:Csr.Arrays ~degree:(Filtered.Fixed 20) ~h lap)
      in
      let new_s, new_t =
        time (fun () ->
            solve ~kernel:Csr.Bigarray_blocked ~degree:(Filtered.Fixed 20) ~h
              lap)
      in
      let bitwise =
        bitwise_equal old_s.Eigen.values new_s.Eigen.values
        && matvecs old_s = matvecs new_s
      in
      let auto_s = solve ~degree:Filtered.Auto ~h lap in
      (* the warm run replays what the cache tier does on a cross-h hit:
         a donor solve at a smaller h leaves its locked Ritz vectors, the
         full-h solve starts from them instead of random vectors *)
      let donor = solve ~degree:Filtered.Auto ~want_vectors:true ~h:h_donor lap in
      let warm_s =
        solve ~degree:Filtered.Auto ?init:donor.Eigen.vectors ~h lap
      in
      let fixed_mv = matvecs new_s
      and auto_mv = matvecs auto_s
      and warm_mv = matvecs warm_s in
      let reduction v =
        if fixed_mv = 0 then 0.0
        else 1.0 -. (float_of_int v /. float_of_int fixed_mv)
      in
      (* equal-accuracy check: the bound computed from each variant's
         spectrum must agree with the fixed-degree cold reference *)
      let bound_of s =
        let eigenvalues = Array.map (Float.max 0.0) s.Eigen.values in
        (Spectral_bound.compute ~n ~m:16 ~eigenvalues ()).Spectral_bound.bound
      in
      let b_ref = bound_of new_s in
      let agree b = Float.abs (b -. b_ref) <= 1e-4 *. (1.0 +. Float.abs b_ref) in
      let accurate = agree (bound_of auto_s) && agree (bound_of warm_s) in
      Report.add_row r
        [ name; Report.cell_int n; Report.cell_float old_t;
          Report.cell_float new_t; string_of_bool bitwise;
          Report.cell_int fixed_mv; Report.cell_int auto_mv;
          Report.cell_int warm_mv;
          Printf.sprintf "%.0f%%" (100.0 *. reduction auto_mv);
          Printf.sprintf "%.0f%%" (100.0 *. reduction warm_mv);
          string_of_bool accurate ];
      fields :=
        (name ^ "_accuracy_ok", Graphio_obs.Jsonx.Bool accurate)
        :: (name ^ "_warm_reduction", Graphio_obs.Jsonx.Float (reduction warm_mv))
        :: (name ^ "_auto_reduction", Graphio_obs.Jsonx.Float (reduction auto_mv))
        :: (name ^ "_warm_matvecs", Graphio_obs.Jsonx.Int warm_mv)
        :: (name ^ "_auto_matvecs", Graphio_obs.Jsonx.Int auto_mv)
        :: (name ^ "_fixed_matvecs", Graphio_obs.Jsonx.Int fixed_mv)
        :: (name ^ "_kernel_bitwise", Graphio_obs.Jsonx.Bool bitwise)
        :: (name ^ "_new_wall_s", Graphio_obs.Jsonx.Float new_t)
        :: (name ^ "_old_wall_s", Graphio_obs.Jsonx.Float old_t)
        :: !fields)
    families;
  Report.note r
    "'bitwise': new-kernel spectrum identical to the old kernel bit for bit, at the same matvec count";
  Report.note r
    "'auto/warm red': matvecs saved vs the fixed-degree cold solve at equal bound accuracy";
  Report.note r
    "warm runs include only the warm solve; the donor is the earlier cross-h solve the cache already holds";
  emit r;
  extra_json := List.rev !fields

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let fft7 = Fft.build 7 in
  let bhk8 = Bhk.build 8 in
  let mat6 = Matmul.build 6 in
  let lap = Laplacian.normalized fft7 in
  let tests =
    [
      Test.make ~name:"fig7/spectral-bound fft l=7 M=8"
        (Staged.stage (fun () -> ignore (Solver.bound fft7 ~m:8)));
      Test.make ~name:"fig8/spectral-bound matmul n=6 M=32"
        (Staged.stage (fun () -> ignore (Solver.bound mat6 ~m:32)));
      Test.make ~name:"fig10/spectral-bound bhk l=8 M=16"
        (Staged.stage (fun () -> ignore (Solver.bound bhk8 ~m:16)));
      Test.make ~name:"fig11/convex-mincut bhk l=8 M=16"
        (Staged.stage (fun () -> ignore (Graphio_flow.Convex_mincut.bound bhk8 ~m:16)));
      Test.make ~name:"substrate/laplacian-build fft l=7"
        (Staged.stage (fun () -> ignore (Laplacian.normalized fft7)));
      Test.make ~name:"substrate/eigen-smallest h=32 fft l=7"
        (Staged.stage (fun () -> ignore (Graphio_la.Eigen.smallest ~h:32 lap)));
      Test.make ~name:"substrate/pebble-simulate fft l=7 M=8"
        (Staged.stage (fun () ->
             ignore
               (Graphio_pebble.Simulator.simulate fft7 ~order:(Topo.natural fft7) ~m:8)));
      Test.make ~name:"substrate/graph-build fft l=7"
        (Staged.stage (fun () -> ignore (Fft.build 7)));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota ~kde:(Some 10) ())
      Instance.[ monotonic_clock ]
      test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  print_endline "== bechamel: wall-clock micro-benchmarks ==";
  List.iter
    (fun test ->
      let results = benchmark test in
      let stats = analyze results in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-45s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-45s (no estimate)\n" name)
        stats)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Store: the out-of-core pipeline — streaming convert, verified mmap  *)
(* load, and the component-decomposed bound on a million-vertex union  *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) in kB from /proc/self/status; 0 where the
   file is unavailable (non-Linux). *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status -> (
      let rec find = function
        | [] -> 0
        | line :: rest ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" Fun.id
            else find rest
      in
      try find (String.split_on_char '\n' status) with Scanf.Scan_failure _ -> 0)

let store () =
  let copies, len = if !quick then (16, 4096) else (128, 8192) in
  let g =
    Dag.replicate (Sequences.independent_chains ~count:1 ~length:len) ~copies
  in
  let n = Dag.n_vertices g and m_edges = Dag.n_edges g in
  let dir = Filename.temp_file "graphio_bench_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let text = Filename.concat dir "big.el" in
  let bin = Filename.concat dir "big.gcsr" in
  let (), text_write_s = time (fun () -> Edgelist.to_file text g) in
  let _, convert_s =
    time (fun () -> Graphio_store.Convert.convert ~input:text ~output:bin)
  in
  let st, load_s = time (fun () -> Graphio_store.Store.load bin) in
  let m = 64 in
  let parts, extract_s =
    time (fun () -> Array.map fst (Graphio_store.Store.component_dags st))
  in
  let out_store, bound_s =
    time (fun () -> Solver.bound_parts parts ~m)
  in
  let out_mem, mem_bound_s = time (fun () -> Solver.bound g ~m) in
  let b_store = out_store.Solver.result.Spectral_bound.bound in
  let b_mem = out_mem.Solver.result.Spectral_bound.bound in
  let bitwise = Int64.equal (Int64.bits_of_float b_store) (Int64.bits_of_float b_mem) in
  let text_bytes = (Unix.stat text).Unix.st_size in
  let bin_bytes = (Unix.stat bin).Unix.st_size in
  let rss = peak_rss_kb () in
  let r =
    Report.create
      ~title:
        (Printf.sprintf
           "store: out-of-core pipeline on union:%d:path:%d (n=%d, m=%d, M=%d)"
           copies len n m_edges m)
      ~columns:[ "quantity"; "value" ]
  in
  Report.add_row r [ "text edgelist (bytes)"; Report.cell_int text_bytes ];
  Report.add_row r [ "binary store (bytes)"; Report.cell_int bin_bytes ];
  Report.add_row r [ "text write (s)"; Report.cell_float text_write_s ];
  Report.add_row r [ "streaming convert (s)"; Report.cell_float convert_s ];
  Report.add_row r [ "verified load (s)"; Report.cell_float load_s ];
  Report.add_row r [ "component extraction (s)"; Report.cell_float extract_s ];
  Report.add_row r [ "decomposed bound (s)"; Report.cell_float bound_s ];
  Report.add_row r [ "in-memory bound (s)"; Report.cell_float mem_bound_s ];
  Report.add_row r [ "bound"; Report.cell_float b_store ];
  Report.add_row r [ "bitwise = in-memory path"; Report.cell_int (if bitwise then 1 else 0) ];
  Report.add_row r [ "peak RSS (kB)"; Report.cell_int rss ];
  Report.note r
    "identical components share one closed-form spectrum: the decomposed solve is O(one component)";
  Report.note r
    "load verifies both checksums + structure before serving a single edge";
  emit r;
  extra_json :=
    [
      ("n", Graphio_obs.Jsonx.Int n);
      ("edges", Graphio_obs.Jsonx.Int m_edges);
      ("m", Graphio_obs.Jsonx.Int m);
      ("text_bytes", Graphio_obs.Jsonx.Int text_bytes);
      ("bin_bytes", Graphio_obs.Jsonx.Int bin_bytes);
      ("text_write_s", Graphio_obs.Jsonx.Float text_write_s);
      ("convert_s", Graphio_obs.Jsonx.Float convert_s);
      ("load_s", Graphio_obs.Jsonx.Float load_s);
      ("extract_s", Graphio_obs.Jsonx.Float extract_s);
      ("bound_s", Graphio_obs.Jsonx.Float bound_s);
      ("mem_bound_s", Graphio_obs.Jsonx.Float mem_bound_s);
      ("bound", Graphio_obs.Jsonx.Float b_store);
      ("bitwise_equal", Graphio_obs.Jsonx.Bool bitwise);
      ("components", Graphio_obs.Jsonx.Int (Array.length parts));
      ("peak_rss_kb", Graphio_obs.Jsonx.Int rss);
    ]

(* ------------------------------------------------------------------ *)
(* Portfolio: per-method bound and wall time across the workload zoo   *)
(* ------------------------------------------------------------------ *)

(* One [Solver.bound ~method_:Portfolio] call per graph: the outcome's
   per-member records carry each method's bound and wall time, so the
   table (and BENCH_10.json) shows who wins where and what each member
   costs.  The acceptance bar rides along: the portfolio headline must
   dominate both the Normalized and Standard members on every graph. *)
let portfolio () =
  let graphs =
    if !quick then
      [
        ("fft:7", Fft.build 7, 8);
        ("bhk:8", Bhk.build 8, 8);
        ("grid:24:24", Stencil.grid ~rows:24 ~cols:24, 8);
        ("er:400:0.02:1", Er.gnp ~n:400 ~p:0.02 ~seed:1, 4);
      ]
    else
      [
        ("fft:9", Fft.build 9, 8);
        ("bhk:10", Bhk.build 10, 8);
        ("grid:48:48", Stencil.grid ~rows:48 ~cols:48, 8);
        ("er:1000:0.01:1", Er.gnp ~n:1000 ~p:0.01 ~seed:1, 4);
      ]
  in
  let members = Method.concrete in
  let r =
    Report.create ~title:"portfolio: per-method bound and wall time"
      ~columns:
        ([ "graph"; "n"; "M" ]
        @ List.concat_map
            (fun m ->
              let s = Method.to_string m in
              [ s; s ^ " s" ])
            members
        @ [ "winner" ])
  in
  let records = ref [] in
  let dominated = ref true in
  List.iter
    (fun (spec, g, m) ->
      let o = Solver.bound ~method_:Solver.Portfolio g ~m in
      let mvs = Array.to_list o.Solver.methods in
      let winner =
        match o.Solver.winner with
        | Some w -> Method.to_string w
        | None -> "-"
      in
      let headline = o.Solver.result.Spectral_bound.bound in
      List.iter
        (fun mv ->
          if
            (mv.Solver.mv_method = Solver.Normalized
            || mv.Solver.mv_method = Solver.Standard)
            && headline < mv.Solver.mv_bound
          then dominated := false)
        mvs;
      Report.add_row r
        (spec
        :: Report.cell_int (Dag.n_vertices g)
        :: Report.cell_int m
        :: List.concat_map
             (fun mv ->
               [
                 Report.cell_float mv.Solver.mv_bound;
                 Report.cell_float mv.Solver.mv_wall_s;
               ])
             mvs
        @ [ winner ]);
      records :=
        Graphio_obs.Jsonx.Obj
          [
            ("spec", Graphio_obs.Jsonx.String spec);
            ("n", Graphio_obs.Jsonx.Int (Dag.n_vertices g));
            ("m", Graphio_obs.Jsonx.Int m);
            ("bound", Graphio_obs.Jsonx.Float headline);
            ("winner", Graphio_obs.Jsonx.String winner);
            ( "methods",
              Graphio_obs.Jsonx.List
                (List.map
                   (fun mv ->
                     Graphio_obs.Jsonx.Obj
                       [
                         ( "method",
                           Graphio_obs.Jsonx.String
                             (Method.to_string mv.Solver.mv_method) );
                         ("bound", Graphio_obs.Jsonx.Float mv.Solver.mv_bound);
                         ("wall_s", Graphio_obs.Jsonx.Float mv.Solver.mv_wall_s);
                       ])
                   mvs) );
          ]
        :: !records)
    graphs;
  Report.note r
    (if !dominated then
       "portfolio >= normalized and standard on every graph (acceptance bar)"
     else "REGRESSION: a member beat the portfolio headline");
  emit r;
  extra_json :=
    [
      ("graphs", Graphio_obs.Jsonx.List (List.rev !records));
      ("dominates_members", Graphio_obs.Jsonx.Bool !dominated);
    ]

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("sec51", sec51);
    ("sec52", sec52);
    ("sec53", sec53);
    ("thm6", thm6);
    ("relaxation", relaxation);
    ("gallery", gallery);
    ("ablations", ablations);
    ("tightness", tightness);
    ("sandwich", sandwich);
    ("batch", batch);
    ("serve", serve);
    ("recognize", recognize);
    ("eigen", eigen);
    ("store", store);
    ("portfolio", portfolio);
    ("bechamel", bechamel);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--csv" :: rest ->
        csv_mode := true;
        parse acc rest
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | [ "--json" ] ->
        prerr_endline "bench: --json requires an output path";
        exit 2
    | "--faults" :: plan :: rest -> (
        (* chaos benchmarking: run the sections with fault injection live
           (e.g. to measure the cache's corrupt-record recovery cost) *)
        match Graphio_fault.parse plan with
        | Ok p ->
            Graphio_fault.set p;
            parse acc rest
        | Error msg ->
            Printf.eprintf "bench: %s\n" msg;
            exit 2)
    | [ "--faults" ] ->
        prerr_endline "bench: --faults requires a plan string";
        exit 2
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            njobs := v;
            parse acc rest
        | _ ->
            prerr_endline "bench: -j requires a positive integer";
            exit 2)
    | [ "-j" ] ->
        prerr_endline "bench: -j requires a positive integer";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] -> sections
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name sections with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown section %S (available: %s)\n" name
                  (String.concat ", " (List.map fst sections));
                exit 2)
          names
  in
  let records = ref [] in
  List.iter
    (fun (name, f) ->
      extra_json := [];
      let before = Graphio_obs.Metrics.snapshot () in
      let (), dt = time f in
      let after = Graphio_obs.Metrics.snapshot () in
      let delta c = counter_of after c - counter_of before c in
      let dense = delta "la.eigen.dense_solves"
      and sparse = delta "la.eigen.sparse_solves" in
      let backend =
        match (dense > 0, sparse > 0) with
        | true, true -> "dense+sparse"
        | true, false -> "dense"
        | false, true -> "sparse"
        | false, false -> "-"
      in
      records :=
        Graphio_obs.Jsonx.Obj
          ([
             ("section", Graphio_obs.Jsonx.String name);
             ("wall_s", Graphio_obs.Jsonx.Float dt);
             ("matvecs", Graphio_obs.Jsonx.Int (delta "la.eigen.matvecs"));
             ("backend", Graphio_obs.Jsonx.String backend);
           ]
          @ !extra_json)
        :: !records;
      Printf.printf "[section %s completed in %.1fs]\n\n" name dt;
      flush stdout)
    selected;
  match !json_path with
  | None -> ()
  | Some path ->
      Graphio_obs.Jsonx.to_file path
        (Graphio_obs.Jsonx.Obj
           [
             ("quick", Graphio_obs.Jsonx.Bool !quick);
             ("sections", Graphio_obs.Jsonx.List (List.rev !records));
           ]);
      Printf.printf "wrote per-section bench records to %s\n" path
