(* Per-layer accounting for the traced run.

   A traced request runs inside a [bench.request] span.  The program's own
   spans ([solver.*], [eigen.*], [laplacian.assemble],
   [mincut.max_wavefront], [server.request]) and the spans this benchmark
   puts around calls into layer APIs ([bench.*]) nest below it.  Each
   span's self time is its duration minus the durations of its direct
   children; self times are summed per layer within a request and kept as
   one sample per request, so a layer metric is the median over the
   requests that entered the layer.  Counts are totals over the traced
   pass. *)

type span = { name : string; start_ns : int; dur_ns : int; depth : int }

let of_record (r : Graphio_obs.Span.record) =
  { name = r.name; start_ns = r.start_ns; dur_ns = r.dur_ns; depth = r.depth }

(* The time key a span's self time is charged to.  [bench.request] is the
   root of an in-process request: its self time is benchmark glue, the
   part of the request no layer accounts for. *)
let key_of_span = function
  | "bench.request" -> Some "glue"
  | "solver.bound" | "solver.bound_batch" | "solver.bound_cached" ->
      Some "core.self_s"
  | "solver.visit_profile" -> Some "core.visit_s"
  | "solver.recognize" -> Some "recognize.s"
  | "solver.laplacian" | "laplacian.assemble" -> Some "graph.laplacian_s"
  | "solver.eigensolve" -> Some "la.wrapper_s"
  | "eigen.dense" -> Some "la.dense_s"
  | "eigen.filtered" -> Some "la.sparse_s"
  | "mincut.max_wavefront" | "bench.mincut" -> Some "flow.mincut_s"
  | "bench.store_load" -> Some "store.load_s"
  | "bench.components" -> Some "graph.components_s"
  | "bench.rpc" -> Some "server.rpc_client_s"
  | "server.request" -> Some "server.self_s"
  | _ -> None

let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 64
let totals : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  Hashtbl.reset samples;
  Hashtbl.reset totals

let sample key v =
  match Hashtbl.find_opt samples key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add samples key (ref [ v ])

let add key v =
  Hashtbl.replace totals key
    (v +. Option.value (Hashtbl.find_opt totals key) ~default:0.0)

let total key = Option.value (Hashtbl.find_opt totals key) ~default:0.0

let median key =
  match Hashtbl.find_opt samples key with
  | None -> 0.0
  | Some l -> Summary.median (Array.of_list !l)

(* Charge one request's span tree.  Spans are ordered by start time, a
   parent before a child that starts at the same instant; a stack of open
   spans finds each span's parent, whose self time loses the child's
   duration. *)
let account_request spans =
  let spans =
    List.sort
      (fun a b ->
        match compare a.start_ns b.start_ns with
        | 0 -> compare a.depth b.depth
        | c -> c)
      spans
  in
  let self = Hashtbl.create 16 in
  let stack = ref [] in
  List.iteri
    (fun i s ->
      let rec pop = function
        | (_, p) :: rest when p.depth >= s.depth -> pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with
      | (pi, _) :: _ ->
          Hashtbl.replace self pi (Hashtbl.find self pi - s.dur_ns)
      | [] -> ());
      Hashtbl.replace self i s.dur_ns;
      stack := (i, s) :: !stack)
    spans;
  let per_key = Hashtbl.create 16 in
  List.iteri
    (fun i s ->
      match key_of_span s.name with
      | None ->
          (* a span this table does not know is charged as glue, so the
             attribution check cannot pass by ignoring it *)
          Hashtbl.replace per_key "glue"
            (Hashtbl.find self i
            + Option.value (Hashtbl.find_opt per_key "glue") ~default:0)
      | Some k ->
          Hashtbl.replace per_key k
            (Hashtbl.find self i
            + Option.value (Hashtbl.find_opt per_key k) ~default:0))
    spans;
  Hashtbl.iter
    (fun k ns ->
      let s = float_of_int ns *. 1e-9 in
      sample k s;
      add k s)
    per_key;
  List.iter
    (fun s ->
      add ("spans." ^ s.name) 1.0;
      let dur = float_of_int s.dur_ns *. 1e-9 in
      match (s.depth, s.name) with
      | 0, "bench.request" -> add "root_s" dur
      | 0, "server.request" -> sample "server.request_s" dur
      | _ -> ())
    spans

(* Split a whole trace (the server's, one request after another) into
   per-request trees at each depth-0 span. *)
let split_requests spans =
  let spans =
    List.sort
      (fun a b ->
        match compare a.start_ns b.start_ns with
        | 0 -> compare a.depth b.depth
        | c -> c)
      spans
  in
  let groups, cur =
    List.fold_left
      (fun (groups, cur) s ->
        if s.depth = 0 && cur <> [] then (List.rev cur :: groups, [ s ])
        else (groups, s :: cur))
      ([], []) spans
  in
  List.rev (if cur = [] then groups else List.rev cur :: groups)

(* Spans of a Chrome trace-event document written by [--trace FILE]. *)
let of_chrome_trace path =
  let doc =
    Graphio_obs.Jsonx.of_string (In_channel.with_open_bin path In_channel.input_all)
  in
  let num = function
    | Some (Graphio_obs.Jsonx.Int i) -> float_of_int i
    | Some (Graphio_obs.Jsonx.Float f) -> f
    | _ -> 0.0
  in
  match Graphio_obs.Jsonx.member "traceEvents" doc with
  | Some (Graphio_obs.Jsonx.List evs) ->
      List.filter_map
        (fun ev ->
          match Graphio_obs.Jsonx.member "name" ev with
          | Some (Graphio_obs.Jsonx.String name) ->
              let depth =
                match Graphio_obs.Jsonx.member "args" ev with
                | Some args -> int_of_float (num (Graphio_obs.Jsonx.member "depth" args))
                | None -> 0
              in
              Some
                {
                  name;
                  start_ns = int_of_float (num (Graphio_obs.Jsonx.member "ts" ev) *. 1e3);
                  dur_ns = int_of_float (num (Graphio_obs.Jsonx.member "dur" ev) *. 1e3);
                  depth;
                }
          | _ -> None)
        evs
  | _ -> failwith (path ^ ": not a trace-event document")
