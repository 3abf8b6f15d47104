(* Load generator for graphio: one workload per process, one client, a
   closed loop of requests drawn from a seeded stream.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--graphio PATH]

   --trace 0 sets the workload up five times (setup_s is the median),
   then times requests for S seconds and prints the end-to-end metrics.
   --trace 1 runs a fixed prefix of the same stream twice, untraced and
   traced, and prints the per-layer metrics.  Every answer is checked
   after the timed window; the last line of stdout is one JSON object. *)

let workloads =
  [ Solve_cold.workload; Portfolio_survey.workload; Serve_warm.workload; Store_load.workload ]

(* Variables that would make a run measure something else: an injected
   fault plan, a spectrum cache that outlives the run, a shared pool. *)
let forbidden_env = [ "GRAPHIO_FAULTS"; "GRAPHIO_CACHE_DIR"; "GRAPHIO_CACHE_CAP"; "GRAPHIO_POOL" ]

(* Set-ups per end-to-end run; setup_s is their median. *)
let n_setups = 5

(* A run with fewer timed requests than this has fewer than ten samples
   beyond its p90 and fails instead of reporting one. *)
let min_requests = 100

(* Largest share of traced request time no layer span accounts for. *)
let unattributed_tolerance = 0.10

(* Counts that must repeat exactly between the untraced and the traced
   pass over the same requests. *)
let deterministic =
  [
    "la.eigen.matvecs"; "la.csr.fma_flops"; "graph.laplacian.nnz"; "la.eigen.dense_solves";
    "la.eigen.sparse_solves"; "flow.dinic.max_flows"; "flow.dinic.bfs_phases";
    "flow.dinic.augmenting_paths"; "cache.hits"; "cache.misses"; "core.solver.closed_form_hits";
    "store.bytes";
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type pass = {
  lats : float array;  (** raw request latencies *)
  scaled : float array;  (** the same, at the reference host speed ({!Host}) *)
  outcomes : (Harness.outcome, string) result array;
  elapsed : float;
}

(* Closed loop: the next request starts when the previous one returns.
   Stops at [deadline_s] seconds or after [count] requests. *)
let run_pass ?(traced = false) ?deadline_s ?count (inst : Harness.instance) =
  let spans = ref [] and outcomes = ref [] in
  Host.reset ();
  let t_start = Graphio_obs.Clock.now_ns () in
  let continue i =
    (match count with Some n -> i < n | None -> true)
    &&
    match deadline_s with
    | Some d -> Graphio_obs.Clock.elapsed_s t_start < d
    | None -> true
  in
  let i = ref 0 in
  while continue !i do
    Host.maybe_calibrate ();
    if traced then Graphio_obs.Span.clear ();
    let call () =
      if traced then Graphio_obs.Span.with_ "bench.request" (fun () -> inst.request !i)
      else inst.request !i
    in
    let t0 = Graphio_obs.Clock.now_ns () in
    let r = try Ok (call ()) with e -> Error (Printexc.to_string e) in
    let t1 = Graphio_obs.Clock.now_ns () in
    if traced then begin
      Layers.account_request (List.map Layers.of_record (Graphio_obs.Span.records ()));
      Graphio_obs.Span.clear ();
      match r with Ok o -> o.Harness.side () | Error _ -> ()
    end;
    spans := (t0, t1, float_of_int (t1 - t0) *. 1e-9) :: !spans;
    outcomes := r :: !outcomes;
    incr i
  done;
  let elapsed = Graphio_obs.Clock.elapsed_s t_start in
  Host.calibrate ();
  let spans = Array.of_list (List.rev !spans) in
  {
    lats = Array.map (fun (_, _, dt) -> dt) spans;
    scaled = Host.scale_all spans;
    outcomes = Array.of_list (List.rev !outcomes);
    elapsed;
  }

(* Check every answer; returns the failure count and the bounds of the
   first [prefix] requests. *)
let check_pass ~prefix p =
  let failed = ref 0 and bounds = ref [] in
  Array.iteri
    (fun i r ->
      let verdict =
        match r with
        | Error e -> Error e
        | Ok o -> ( try o.Harness.check () with e -> Error (Printexc.to_string e))
      in
      match verdict with
      | Ok bs -> if i < prefix then bounds := bs @ !bounds
      | Error e ->
          if !failed < 5 then prerr_endline ("perfbench: request " ^ string_of_int i ^ ": " ^ e);
          incr failed)
    p.outcomes;
  (!failed, !bounds)

let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let subdir tmp name =
  let d = Filename.concat tmp name in
  Unix.mkdir d 0o755;
  d

let end_to_end (w : Harness.workload) ~seed ~seconds ~tmp ~prefix =
  (* every set-up but the last is torn down at once; the last one serves
     the timed window *)
  let setup k =
    let dir = subdir tmp (Printf.sprintf "setup-%d" k) in
    Host.reset ();
    Host.calibrate ();
    let t0 = Graphio_obs.Clock.now_ns () in
    let inst = w.setup ~seed ~tmp:dir ~trace:false in
    let t1 = Graphio_obs.Clock.now_ns () in
    Host.calibrate ();
    (inst, dir, (Host.scale_all [| (t0, t1, float_of_int (t1 - t0) *. 1e-9) |]).(0))
  in
  let times =
    List.init (n_setups - 1) (fun k ->
        let (inst : Harness.instance), dir, dt = setup k in
        inst.teardown ();
        Harness.rm_rf dir;
        dt)
  in
  let inst, _, dt = setup (n_setups - 1) in
  let setup_s = Summary.median (Array.of_list (dt :: times)) in
  let p = run_pass ~deadline_s:seconds inst in
  let peak_rss_mb = inst.peak_rss_mb () in
  inst.teardown ();
  let n = Array.length p.lats in
  Printf.eprintf "perfbench: %s: %d timed requests in %.2f s; raw p50 %.6f s, p90 %.6f s, %.3f req/s\n%!"
    w.name n p.elapsed (Summary.quantile 0.5 p.lats) (Summary.quantile 0.9 p.lats)
    (float_of_int n /. p.elapsed);
  if n < max min_requests prefix then
    die "%s: only %d timed requests in %.1f s (need %d for a p90 with ten samples beyond it)" w.name
      n p.elapsed (max min_requests prefix);
  let failed, bounds = check_pass ~prefix p in
  let logmean =
    Summary.mean (Array.of_list (List.map (fun b -> Float.log1p (Float.max b 0.0)) bounds))
  in
  print_result ~correct:(failed = 0) ~attempted:n ~failed
    [
      ("setup_s", "s", setup_s);
      ("req_per_s", "1/s", float_of_int n /. Array.fold_left ( +. ) 0.0 p.scaled);
      ("req_p50_s", "s", Summary.quantile 0.5 p.scaled);
      ("req_p90_s", "s", Summary.quantile 0.9 p.scaled);
      ("peak_rss_mb", "MiB", peak_rss_mb);
      ("ok_frac", "ratio", float_of_int (n - failed) /. float_of_int n);
      ("bound_logmean", "ln", logmean);
    ]

let methods = List.map Graphio_core.Method.to_string Graphio_core.Method.concrete

let per_layer ~counters ~overhead ~unattributed =
  let c = Harness.get counters in
  let m = Layers.median and t = Layers.total in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let hits = c "cache.hits" and misses = c "cache.misses" in
  [
    ("workloads.build_s", "s", m "workloads.build_s");
    ("graph.fingerprint_s", "s", m "graph.fingerprint_s");
    ("graph.laplacian_s", "s", m "graph.laplacian_s");
    ("graph.laplacian_nnz", "count", c "graph.laplacian.nnz");
    ("graph.components_s", "s", m "graph.components_s");
    ("recognize.s", "s", m "recognize.s");
    ("recognize.spectrum_s", "s", m "recognize.spectrum_s");
    ("recognize.hit_ratio", "ratio", ratio (c "core.solver.closed_form_hits") (t "spans.solver.recognize"));
    ("la.dense_s", "s", m "la.dense_s");
    ("la.dense_solves", "count", c "la.eigen.dense_solves");
    ("la.sparse_s", "s", m "la.sparse_s");
    ("la.sparse_solves", "count", c "la.eigen.sparse_solves");
    ("la.matvecs", "count", c "la.eigen.matvecs");
    ("la.sweeps", "count", c "la.eigen.restarts");
    ("la.flops", "count", c "la.csr.fma_flops");
    ("la.gflops", "GFLOP/s", ratio (2.0 *. c "la.csr.fma_flops" /. 1e9) (t "la.sparse_s"));
    ("la.locked_ratio", "ratio", ratio (c "la.eigen.locked") (c "la.eigen.locked" +. c "la.eigen.padded"));
    ("la.padded", "count", c "la.eigen.padded");
    ("core.maximize_s", "s", m "core.maximize_s");
    ("core.visit_s", "s", m "core.visit_s");
    ("core.self_s", "s", m "core.self_s");
  ]
  @ List.map (fun x -> ("core.member_s." ^ x, "s", m ("core.member_s." ^ x))) methods
  @ List.map
      (fun x -> ("core.win_share." ^ x, "ratio", ratio (t ("core.win." ^ x)) (t "core.portfolio_requests")))
      methods
  @ [
      ("flow.max_flows", "count", c "flow.dinic.max_flows");
      ("flow.bfs_phases", "count", c "flow.dinic.bfs_phases");
      ("flow.augmenting_paths", "count", c "flow.dinic.augmenting_paths");
      ("flow.mincut_s", "s", m "flow.mincut_s");
      ("cache.hit_ratio", "ratio", ratio hits (hits +. misses));
      ("cache.misses", "count", misses);
      ("cache.ritz_hits", "count", c "cache.ritz_hits");
      ("store.load_s", "s", m "store.load_s");
      ("store.load_mb_per_s", "MiB/s", m "store.load_mb_per_s");
      ("store.extract_s", "s", m "store.extract_s");
      ("store.convert_s", "s", m "store.convert_s");
      ("store.convert_mb_per_s", "MiB/s", m "store.convert_mb_per_s");
      ("store.bytes", "B", c "store.bytes");
      ("server.request_s", "s", m "server.request_s");
      ("server.self_s", "s", m "server.self_s");
      ("server.rpc_s", "s", m "server.rpc_client_s");
      ("server.wire_s", "s", m "server.wire_s");
      ("server.errors", "count", c "server.errors");
      ("trace.overhead_s", "s", overhead);
      ("trace.unattributed_share", "ratio", unattributed);
    ]

let traced (w : Harness.workload) ~seed ~tmp ~prefix =
  let n = w.trace_requests in
  let pass ~traced dir =
    Layers.reset ();
    let inst = w.setup ~seed ~tmp:(subdir tmp dir) ~trace:traced in
    Graphio_obs.Metrics.reset ();
    Graphio_obs.Span.set_enabled traced;
    let p = run_pass ~traced ~count:n inst in
    Graphio_obs.Span.set_enabled false;
    let counters = ("store.bytes", Layers.total "store.bytes") :: inst.counters () in
    if traced then inst.finish_trace ();
    inst.teardown ();
    (p, counters)
  in
  let plain, plain_counters = pass ~traced:false "untraced" in
  let failed_plain, _ = check_pass ~prefix plain in
  let tr, counters = pass ~traced:true "traced" in
  let failed_traced, _ = check_pass ~prefix tr in
  let repeat =
    List.filter_map
      (fun k ->
        let a = Harness.get plain_counters k and b = Harness.get counters k in
        if a = b then None else Some (Printf.sprintf "%s: %.0f untraced, %.0f traced" k a b))
      deterministic
  in
  List.iter (fun s -> prerr_endline ("perfbench: count did not repeat: " ^ s)) repeat;
  let asserts = w.assertions counters in
  List.iter
    (fun (what, ok) -> if not ok then prerr_endline ("perfbench: bypass assertion failed: " ^ what))
    asserts;
  let unattributed = Layers.total "glue" /. Layers.total "root_s" in
  if unattributed > unattributed_tolerance then
    Printf.eprintf "perfbench: %.1f%% of traced request time is outside every layer span (tolerance %.0f%%)\n%!"
      (100.0 *. unattributed) (100.0 *. unattributed_tolerance);
  let overhead = Summary.median tr.scaled -. Summary.median plain.scaled in
  let failed = failed_plain + failed_traced in
  print_result
    ~correct:(failed = 0 && repeat = [] && List.for_all snd asserts && unattributed <= unattributed_tolerance)
    ~attempted:(2 * n) ~failed
    (per_layer ~counters ~overhead ~unattributed)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N request-stream seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--graphio", Arg.Set_string Serve_warm.graphio, "PATH graphio executable for serve-warm");
    ]
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  (match List.filter (fun v -> Sys.getenv_opt v <> None) forbidden_env with
  | [] -> ()
  | set -> die "refusing to run with %s set" (String.concat ", " set));
  let w =
    match List.find_opt (fun (w : Harness.workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        die "unknown workload %S (expected %s)" !workload
          (String.concat ", " (List.map (fun (w : Harness.workload) -> w.name) workloads))
  in
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (* a server that died must not take the client with it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 3));
  let root = ".perfbench_tmp" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tmp = Filename.concat root (string_of_int (Unix.getpid ())) in
  Harness.rm_rf tmp;
  Unix.mkdir tmp 0o755;
  at_exit (fun () ->
      Harness.kill_children ();
      Harness.rm_rf tmp;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  (* bound_logmean averages whole blocks, so every seed sees the same mix *)
  let prefix = w.block * ((min_requests + w.block - 1) / w.block) in
  if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds ~tmp ~prefix
  else traced w ~seed:!seed ~tmp ~prefix
