(* serve-warm: a [graphio serve -j 1] child over a Unix socket, one client
   connection, closed loop.

   A block of 40 requests holds 34 queries on a hot set of 16 specs with
   Zipf(1) popularity (closed-form families plus small numeric graphs,
   primed into the server's cache during set-up, M drawn per request so
   the cache key repeats while the query varies) and 6 queries on fresh
   Erdos-Renyi graphs (n = 100..250) that miss the cache.  About 85% of
   requests are hits; p50 falls among the hits and p90 among the misses.
   The server rebuilds each graph from its spec, fingerprints, recognizes,
   looks up its cache and k-maximizes on every request, so those layers
   carry the work here and the eigensolver almost none. *)

module S = Graphio_core.Solver
module Jsonx = Graphio_obs.Jsonx

let graphio = ref "graphio"
let block = 40
let n_hot_slots = 34

(* hot specs in popularity order, with the method each is queried with *)
let hot =
  [|
    ("fft:5", S.Normalized); ("grid:8:8", S.Standard); ("bhk:6", S.Standard);
    ("er:80:0.06:11", S.Normalized); ("fft:6", S.Normalized); ("path:64", S.Normalized);
    ("matmul:4", S.Normalized); ("bhk:7", S.Standard); ("grid:10:12", S.Standard);
    ("strassen:4", S.Normalized); ("fft:4", S.Normalized); ("er:120:0.05:12", S.Standard);
    ("path:256", S.Normalized); ("matmul-binary:4", S.Normalized); ("bhk:5", S.Standard);
    ("grid:16:16", S.Standard);
  |]

let miss_sizes = [| 100; 130; 160; 190; 220; 250 |]

(* Slot -> hot rank: rank r gets round(34 w_r / sum w) slots with
   w_r = 1/r (at least one each), the most popular absorbing the
   rounding. *)
let slot_rank =
  let k = Array.length hot in
  let w = Array.init k (fun r -> 1.0 /. float_of_int (r + 1)) in
  let sum = Array.fold_left ( +. ) 0.0 w in
  let counts =
    Array.map (fun x -> max 1 (int_of_float (Float.round (float_of_int n_hot_slots *. x /. sum)))) w
  in
  counts.(0) <- counts.(0) + n_hot_slots - Array.fold_left ( + ) 0 counts;
  Array.concat (List.init k (fun r -> Array.make counts.(r) r))

let method_name = Graphio_core.Method.to_string

(* Query [i] of the stream: spec, method and M. *)
let query ~seed ~mf i =
  let b, t = Harness.template ~seed ~tag:3 ~size:block i in
  (* M cycles with the block, so every block prefix holds the same mix *)
  if t < n_hot_slots then begin
    let r = slot_rank.(t) in
    let spec, method_ = hot.(r) in
    let m = mf.(r) + [| 0; 1; 2; mf.(r) |].((b + t) mod 4) in
    (spec, method_, m)
  end
  else begin
    let n = miss_sizes.(t - n_hot_slots) in
    ( Printf.sprintf "er:%d:%g:%d" n (6.0 /. float_of_int n) ((seed * 1_000_000) + i + 1),
      S.Normalized,
      32 + (8 * ((b + t) mod 3)) )
  end

let line (spec, method_, m) =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("spec", Jsonx.String spec); ("m", Jsonx.Int m); ("method", Jsonx.String (method_name method_)) ])

(* In-process reference answers, shared by the check and the traced side
   measurements. *)
let graphs : (string, Graphio_graph.Dag.t) Hashtbl.t = Hashtbl.create 64
let expected : (string * string * int, S.outcome) Hashtbl.t = Hashtbl.create 256

let graph spec =
  match Hashtbl.find_opt graphs spec with
  | Some g -> g
  | None ->
      let g = Harness.spec spec in
      Hashtbl.add graphs spec g;
      g

let reference (spec, method_, m) =
  let key = (spec, method_name method_, m) in
  match Hashtbl.find_opt expected key with
  | Some o -> o
  | None ->
      let o = S.bound ~method_ (graph spec) ~m in
      Hashtbl.add expected key o;
      o

let counters_of client =
  match Jsonx.member "metrics" (Jsonx.of_string (Graphio_server.Client.rpc client {|{"op":"metrics"}|})) with
  | Some m -> Harness.counters_of_snapshot (Graphio_obs.Metrics.of_json m)
  | None -> failwith "server metrics reply carries no snapshot"

let setup ~seed ~tmp ~trace =
  let sock = Filename.concat tmp "serve.sock" in
  let trace_file = Filename.concat tmp "serve-trace.json" in
  let args =
    [ !graphio; "serve"; "-j"; "1"; "--socket"; sock ] @ if trace then [ "--trace"; trace_file ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log = Unix.openfile (Filename.concat tmp "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process !graphio (Array.of_list args) devnull devnull log in
  Unix.close devnull;
  Unix.close log;
  Harness.children := pid :: !Harness.children;
  (* poll for the socket in 1 ms steps: the client's own retry sleeps
     50 ms, which would quantize setup_s *)
  let t0 = Graphio_obs.Clock.now_ns () in
  while (not (Sys.file_exists sock)) && Graphio_obs.Clock.elapsed_s t0 < 20.0 do
    Unix.sleepf 0.001
  done;
  let client = Graphio_server.Client.connect (Graphio_server.Server.Unix_socket sock) in
  let mf = Array.map (fun (spec, _) -> Graphio_pebble.Simulator.min_feasible_m (graph spec)) hot in
  Array.iteri
    (fun r (spec, method_) ->
      let reply = Graphio_server.Client.rpc client (line (spec, method_, mf.(r))) in
      if Jsonx.member "ok" (Jsonx.of_string reply) <> Some (Jsonx.Bool true) then
        failwith ("priming " ^ spec ^ " failed: " ^ reply))
    hot;
  let primed = Array.length hot in
  let baseline = counters_of client in
  let rpc_s = ref [] in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      (try ignore (Graphio_server.Client.rpc client {|{"op":"shutdown"}|}) with _ -> ());
      Graphio_server.Client.close client;
      Harness.reap pid
    end
  in
  let request i =
    let q = query ~seed ~mf i in
    let reply, dt =
      Graphio_obs.Clock.time (fun () ->
          Graphio_obs.Span.with_ "bench.rpc" (fun () -> Graphio_server.Client.rpc client (line q)))
    in
    if trace then rpc_s := dt :: !rpc_s;
    let spec, _, m = q in
    {
      Harness.check =
        (fun () ->
          let j = Jsonx.of_string reply in
          let served =
            match Jsonx.member "bound" j with
            | Some (Jsonx.Float b) -> Some b
            | Some (Jsonx.Int k) -> Some (float_of_int k)
            | _ -> None
          in
          match (Jsonx.member "ok" j, served) with
          | Some (Jsonx.Bool true), Some b ->
              let want = (reference q).S.result.Graphio_core.Spectral_bound.bound in
              if Float.abs (b -. want) > 1e-9 *. Float.abs want then
                Error (Printf.sprintf "%s M=%d: served %.17g, in-process %.17g" spec m b want)
              else Harness.all_ok [ (fun () -> Harness.check_sandwich ~extra_orders:0 ~key:spec (graph spec) ~m b) ] [ b ]
          | _ -> Error (Printf.sprintf "%s M=%d: %s" spec m reply));
      side =
        (fun () ->
          let g = Harness.sample_time "workloads.build_s" (fun () -> Harness.spec spec) in
          ignore (Harness.sample_time "graph.fingerprint_s" (fun () -> Graphio_graph.Dag.fingerprint g));
          Harness.sample_recognized_spectrum g;
          Harness.sample_maximize (reference q));
    }
  in
  let finish_trace () =
    stop ();
    let groups = Layers.split_requests (Layers.of_chrome_trace trace_file) in
    let groups = List.filteri (fun k _ -> k >= primed) groups in
    let rpcs = List.rev !rpc_s in
    if List.length groups <> List.length rpcs then
      failwith
        (Printf.sprintf "server trace holds %d requests, the client sent %d" (List.length groups)
           (List.length rpcs));
    List.iter2
      (fun spans rpc ->
        Layers.account_request spans;
        match List.find_opt (fun s -> s.Layers.depth = 0) spans with
        | Some root -> Layers.sample "server.wire_s" (rpc -. (float_of_int root.Layers.dur_ns *. 1e-9))
        | None -> ())
      groups rpcs
  in
  {
    Harness.request;
    counters = (fun () -> Harness.delta ~before:baseline (counters_of client));
    peak_rss_mb = (fun () -> Summary.peak_rss_mb ~pid:(string_of_int pid) ());
    finish_trace;
    teardown = stop;
  }

let assertions c =
  let g = Harness.get c in
  let hits = g "cache.hits" and misses = g "cache.misses" in
  [
    ( "serve-warm: eigensolves <= cache misses",
      g "la.eigen.dense_solves" +. g "la.eigen.sparse_solves" <= misses );
    ("serve-warm: most lookups hit the cache", hits > 2.0 *. misses);
    ("serve-warm: no server errors", g "server.errors" = 0.0);
  ]

let workload =
  { Harness.name = "serve-warm"; block; trace_requests = 400; setup; assertions }
