(* store-load: the out-of-core path.

   Set-up builds six disjoint-union graphs of 2^13..2^15 vertices, writes
   each as a text edgelist and converts it with [Convert.convert] to a
   [.gcsr] store.  Four files repeat one closed-form component many times
   (fft, bhk, grid, path); two hold a few distinct numeric components
   (Erdos-Renyi, Strassen).  Each request runs [Store.load] ->
   [Store.component_dags] -> [Solver.bound_parts] on one file with a drawn
   M.  A block of 12 requests visits every file twice; the per-file costs
   overlap, so p50 and p90 fall inside one blended population. *)

open Graphio_graph
module S = Graphio_core.Solver

let block = 12

(* name, builder, method: the method is one the file's components answer
   without a sparse eigensolve *)
let files =
  [|
    ("fft", (fun () -> Harness.spec "union:4:fft:9"), S.Normalized);
    ("bhk", (fun () -> Harness.spec "union:32:bhk:9"), S.Standard);
    ("grid", (fun () -> Harness.spec "union:256:grid:8:8"), S.Standard);
    ("path", (fun () -> Harness.spec "union:4096:path:8"), S.Normalized);
    ( "er",
      (fun () ->
        let parts =
          Array.init 4 (fun j ->
              Dag.replicate (Harness.spec (Printf.sprintf "er:%d:0.03:%d" (160 + (40 * j)) (j + 1))) ~copies:10)
        in
        Array.fold_left Dag.disjoint_union parts.(0) (Array.sub parts 1 3)),
      S.Normalized );
    ("strassen", (fun () -> Harness.spec "union:128:strassen:4"), S.Standard);
  |]

(* In-memory reference answers, per (file, M). *)
let reference : (string * int, float) Hashtbl.t = Hashtbl.create 32

let setup ~seed ~tmp ~trace =
  let stores =
    Array.map
      (fun (name, build, method_) ->
        let g = Harness.sample_time "workloads.build_s" build in
        let text = Filename.concat tmp (name ^ ".txt") in
        let path = Filename.concat tmp (name ^ ".gcsr") in
        Edgelist.to_file text g;
        let text_bytes = (Unix.stat text).Unix.st_size in
        let _, dt = Graphio_obs.Clock.time (fun () -> Graphio_store.Convert.convert ~input:text ~output:path) in
        Layers.sample "store.convert_s" dt;
        Layers.sample "store.convert_mb_per_s" (float_of_int text_bytes /. 1048576.0 /. dt);
        Sys.remove text;
        (name, g, method_, path, (Unix.stat path).Unix.st_size, Graphio_pebble.Simulator.min_feasible_m g))
      files
  in
  let request i =
    let b, t = Harness.template ~seed ~tag:4 ~size:block i in
    let name, g, method_, path, bytes, mf = stores.(t mod Array.length stores) in
    let m = match (b + (t / Array.length stores)) mod 3 with 0 -> mf | 1 -> mf + 2 | _ -> 2 * mf in
    let st, load_s =
      Graphio_obs.Clock.time (fun () -> Graphio_obs.Span.with_ "bench.store_load" (fun () -> Graphio_store.Store.load path))
    in
    let parts = Graphio_obs.Span.with_ "bench.components" (fun () -> Graphio_store.Store.component_dags st) in
    let o = S.bound_parts ~method_ (Array.map fst parts) ~m in
    Layers.add "store.bytes" (float_of_int bytes);
    let bound = o.S.result.Graphio_core.Spectral_bound.bound in
    {
      Harness.check =
        (fun () ->
          let want =
            match Hashtbl.find_opt reference (name, m) with
            | Some b -> b
            | None ->
                let b = (S.bound ~method_ g ~m).S.result.Graphio_core.Spectral_bound.bound in
                Hashtbl.add reference (name, m) b;
                b
          in
          if Int64.bits_of_float bound <> Int64.bits_of_float want then
            Error (Printf.sprintf "%s M=%d: store answer %.17g, in-memory %.17g" name m bound want)
          else
            Harness.all_ok
              [ (fun () -> Harness.check_sandwich ~extra_orders:0 ~key:name g ~m bound) ]
              [ bound ]);
      (* only a traced pass keeps the mapped store and its parts alive
         past the request *)
      side =
        (if not trace then ignore
         else fun () ->
          Layers.sample "store.load_mb_per_s" (float_of_int bytes /. 1048576.0 /. load_s);
          ignore (Harness.sample_time "store.extract_s" (fun () -> Graphio_store.Store.components st));
          ignore (Harness.sample_time "graph.fingerprint_s" (fun () -> Graphio_store.Store.fingerprint st));
          Harness.sample_recognized_spectrum (fst parts.(0));
          Harness.sample_maximize o);
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
    ("store-load takes no sparse eigensolve", g "la.eigen.sparse_solves" = 0.0);
    ("store-load loads stores", g "store.loads" > 0.0);
  ]

let workload = { Harness.name = "store-load"; block; trace_requests = 96; setup; assertions }
