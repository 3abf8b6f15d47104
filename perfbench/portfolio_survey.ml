(* portfolio-survey: the [graphio report] / [graphio baseline] path.

   A block of 20 requests holds 16 portfolio queries
   ([Solver.bound ~method_:Portfolio] with the default members) and 4
   convex min-cut baselines ([Convex_mincut.bound]), all on n = 64..200
   graphs that mix closed-form families (fft, bhk, grid, path) with
   Erdos-Renyi and matrix-multiplication graphs.  Portfolio members and
   min-cut baselines cost the same order of time, so p50 and p90 both fall
   inside one blended population; the visit member's min cuts and the
   baseline put the flow layer on the blocking path. *)

open Graphio_graph
module S = Graphio_core.Solver

let block = 20

(* 0..15 portfolio, 16..19 min-cut.  "er:N" entries draw a fresh seed per
   block of the deck. *)
let templates =
  [|
    "fft:4"; "fft:5"; "bhk:6"; "bhk:7"; "grid:10:10"; "grid:12:12"; "grid:6:16";
    "er:80"; "er:100"; "er:120"; "er:140"; "matmul:4"; "matmul:5"; "strassen:2";
    "matmul-binary:4"; "path:128";
    "grid:10:10"; "er:120"; "matmul:5"; "fft:5";
  |]

let n_portfolio = 16
let deck_blocks = 8

let spec_of ~seed ~deck_block t =
  match String.split_on_char ':' templates.(t) with
  | [ "er"; n ] ->
      let n = int_of_string n in
      Printf.sprintf "er:%d:%g:%d" n (6.0 /. float_of_int n)
        ((seed * 1000) + (deck_block * block) + t + 1)
  | _ -> templates.(t)

let method_name = Graphio_core.Method.to_string

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
    let b, t = Harness.template ~seed ~tag:2 ~size:block i in
    let key, g, mf = deck.(b mod deck_blocks).(t) in
    (* M cycles through three feasible sizes across blocks *)
    let m = match (b + t) mod 3 with 0 -> mf | 1 -> mf + 1 | _ -> 2 * mf in
    if t < n_portfolio then begin
      let o = S.bound ~method_:S.Portfolio g ~m in
      let headline = o.S.result.Graphio_core.Spectral_bound.bound in
      {
        Harness.check =
          (fun () ->
            let best =
              Array.fold_left (fun acc mv -> Float.max acc mv.S.mv_bound) 0.0 o.S.methods
            in
            let members_sound =
              List.map
                (fun mv () ->
                  Harness.check_sandwich ~label:(key ^ "/" ^ method_name mv.S.mv_method) ~key g
                    ~m mv.S.mv_bound)
                (Array.to_list o.S.methods)
            in
            let headline_is_max () =
              if Array.length o.S.methods = List.length Graphio_core.Method.default_portfolio && headline = best then Ok ()
              else Error (Printf.sprintf "%s M=%d: headline %g is not the member max %g" key m headline best)
            in
            Harness.all_ok (headline_is_max :: members_sound) [ headline ]);
        side =
          (fun () ->
            ignore (Harness.sample_time "graph.fingerprint_s" (fun () -> Dag.fingerprint g));
            Harness.sample_maximize o;
            Harness.sample_recognized_spectrum g;
            Layers.add "core.portfolio_requests" 1.0;
            Array.iter
              (fun mv -> Layers.sample ("core.member_s." ^ method_name mv.S.mv_method) mv.S.mv_wall_s)
              o.S.methods;
            Option.iter (fun w -> Layers.add ("core.win." ^ method_name w) 1.0) o.S.winner);
      }
    end
    else begin
      let b =
        Graphio_obs.Span.with_ "bench.mincut" (fun () -> Graphio_flow.Convex_mincut.bound g ~m)
      in
      let bound = float_of_int b in
      {
        Harness.check =
          (fun () -> Harness.all_ok [ (fun () -> Harness.check_sandwich ~key g ~m bound) ] [ bound ]);
        side =
          (fun () ->
            ignore (Harness.sample_time "graph.fingerprint_s" (fun () -> Dag.fingerprint g)));
      }
    end
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
    ("portfolio-survey does flow work", g "flow.dinic.max_flows" > 0.0);
    ("portfolio-survey reads no spectrum-cache hits", g "cache.hits" = 0.0);
  ]

let workload =
  { Harness.name = "portfolio-survey"; block; trace_requests = 100; setup; assertions }
