(* solve-cold: the eigensolver path of [graphio batch].

   Each request is one [Solver.bound_batch] call on one graph, one method
   and an M-sweep of four values, with the spectrum cache disabled and no
   pool, so every request pays exactly one cold eigensolve (the sweep
   shares it through in-batch dedup).  Graphs come from families the
   recognizer does not answer (only tiny path components of some ER
   graphs are recognized).  A block of 20 requests holds 17 dense-path
   graphs (n = 112..324) and 3 sparse-path graphs (n = 468..735, above the
   dense threshold of 400 used here): p50 falls in the dense population,
   p90 in the sparse one.  h = 32 keeps one sparse solve near 0.2 s, so a
   run holds a few hundred requests. *)

open Graphio_graph
module S = Graphio_core.Solver

let h = 32
let dense_threshold = 400
let block = 20

(* Graph builders, by template index: 0..16 dense, 17..19 sparse.  The
   Erdos-Renyi templates (average degree ~6) draw a fresh seed per block
   of the deck. *)
let er_sizes = [| 120; 140; 160; 180; 200; 220; 240; 260; 280; 300; 150 |]
let fixed = [| "matmul:4"; "matmul:5"; "matmul:6"; "strassen:4"; "matmul-binary:4"; "matmul-binary:5" |]
let sparse = [| "matmul-binary:6"; "matmul:7"; "matmul-binary:7" |]

let spec_of ~seed ~deck_block t =
  let ner = Array.length er_sizes and nfix = Array.length fixed in
  if t < ner then
    let n = er_sizes.(t) in
    Printf.sprintf "er:%d:%g:%d" n (6.0 /. float_of_int n)
      ((seed * 1000) + (deck_block * block) + t + 1)
  else if t < ner + nfix then fixed.(t - ner)
  else sparse.(t - ner - nfix)

(* Blocks of pre-built graphs; request blocks beyond the deck wrap round
   (with the cache disabled a repeated graph is solved cold again). *)
let deck_blocks = 8

let setup ~seed ~tmp:_ ~trace:_ =
  let built = Hashtbl.create 64 in
  let deck =
    Array.init deck_blocks (fun b ->
        Array.init block (fun t ->
            let s = spec_of ~seed ~deck_block:b t in
            match Hashtbl.find_opt built s with
            | Some entry -> entry
            | None ->
                let g = Harness.sample_time "workloads.build_s" (fun () -> Harness.spec s) in
                let entry = (s, g, Graphio_pebble.Simulator.min_feasible_m g) in
                Hashtbl.add built s entry;
                entry))
  in
  let request i =
    let b, t = Harness.template ~seed ~tag:1 ~size:block i in
    let key, g, mf = deck.(b mod deck_blocks).(t) in
    (* dense graphs alternate methods; sparse ones always take the
       standard Laplacian, whose solves cost ~0.18 s on all three, so p90
       sits inside one tight cluster rather than between two *)
    let method_ =
      if t >= Array.length er_sizes + Array.length fixed || (t + b) mod 2 = 1 then S.Standard
      else S.Normalized
    in
    let ms = [ mf; mf + 1; mf + 2; 2 * mf ] in
    let jobs = Array.of_list (List.map (fun m -> S.job ~method_ g ~m) ms) in
    let results =
      S.bound_batch ~cache:Graphio_cache.Spectrum.disabled ~h ~dense_threshold jobs
    in
    let bounds =
      Array.map (fun r -> r.S.outcome.S.result.Graphio_core.Spectral_bound.bound) results
    in
    {
      Harness.check =
        (fun () ->
          Harness.all_ok
            (List.map2 (fun m b () -> Harness.check_sandwich ~key g ~m b) ms
               (Array.to_list bounds))
            (Array.to_list bounds));
      side =
        (fun () ->
          ignore (Harness.sample_time "graph.fingerprint_s" (fun () -> Dag.fingerprint g));
          Harness.sample_maximize results.(0).S.outcome);
    }
  in
  {
    Harness.request;
    counters = Harness.local_counters;
    peak_rss_mb = (fun () -> Summary.peak_rss_mb ());
    finish_trace = ignore;
    teardown = ignore;
  }

let assertions c =
  let g = Harness.get c in
  [
    ("solve-cold reads no spectrum-cache hits", g "cache.hits" = 0.0);
    ("solve-cold does no flow work", g "flow.dinic.max_flows" = 0.0);
    ("solve-cold takes the dense path", g "la.eigen.dense_solves" > 0.0);
    ("solve-cold takes the sparse path", g "la.eigen.sparse_solves" > 0.0);
  ]

let workload =
  { Harness.name = "solve-cold"; block; trace_requests = 100; setup; assertions }
