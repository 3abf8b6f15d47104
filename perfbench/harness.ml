(* What every workload provides, and helpers they share. *)

type outcome = {
  check : unit -> (float list, string) result;
      (** run after the timed window: the answer's bounds (fed to
          [bound_logmean]) or why the answer is wrong *)
  side : unit -> unit;
      (** traced pass only, outside the timed call: side measurements of
          layer functions on this request's inputs *)
}

type instance = {
  request : int -> outcome;
      (** the timed call: request [i] of the seeded stream *)
  counters : unit -> (string * float) list;
      (** counter deltas of the process doing the work since the pass
          started *)
  peak_rss_mb : unit -> float;
  finish_trace : unit -> unit;
      (** after a traced pass: charge spans recorded in another process *)
  teardown : unit -> unit;
}

type workload = {
  name : string;
  block : int;
      (** requests per block; each block holds the whole request mix *)
  trace_requests : int;  (** fixed length of a traced pass *)
  setup : seed:int -> tmp:string -> trace:bool -> instance;
  assertions : (string * float) list -> (string * bool) list;
      (** bypass assertions over the traced pass's counters *)
}

(* Request [i] belongs to block [i / size]; within a block every template
   index appears once, in an order shuffled by (seed, block). *)
let template ~seed ~tag ~size i =
  let b = i / size in
  let perm = Array.init size Fun.id in
  let st = Random.State.make [| seed; tag; b |] in
  for k = size - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = perm.(k) in
    perm.(k) <- perm.(j);
    perm.(j) <- t
  done;
  (b, perm.(i mod size))

let spec s =
  match Graphio_workloads.Spec.parse s with
  | Ok g -> g
  | Error msg -> failwith msg

let sample_time key f =
  let r, s = Graphio_obs.Clock.time f in
  Layers.sample key s;
  r

(* Counter values of a registry snapshot. *)
let counters_of_snapshot snap =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Graphio_obs.Metrics.Counter n -> Some (name, float_of_int n)
      | _ -> None)
    snap

let delta ~before after =
  List.map
    (fun (k, v) ->
      (k, v -. Option.value (List.assoc_opt k before) ~default:0.0))
    after

let get counters k = Option.value (List.assoc_opt k counters) ~default:0.0

(* The in-process registry: the harness resets it before each pass. *)
let local_counters () =
  counters_of_snapshot (Graphio_obs.Metrics.snapshot ())

(* Schedule I/O upper bound on J*, memoized per (graph key, M). *)
let upper_bounds : (string * int, int) Hashtbl.t = Hashtbl.create 64

let upper_bound ?extra_orders ~key g ~m =
  match Hashtbl.find_opt upper_bounds (key, m) with
  | Some io -> io
  | None ->
      let io =
        (Graphio_pebble.Simulator.best_upper_bound ?extra_orders g ~m)
          .Graphio_pebble.Simulator.io
      in
      Hashtbl.add upper_bounds (key, m) io;
      io

(* 0 <= bound <= the I/O of a simulated schedule (M must be feasible for
   the simulator).  [key] names the graph; [label] the answer in errors. *)
let check_sandwich ?extra_orders ?label ~key g ~m b =
  let label = Option.value label ~default:key in
  if Float.is_nan b || b < 0.0 then Error (Printf.sprintf "%s: bound %g < 0" label b)
  else if m < Graphio_pebble.Simulator.min_feasible_m g then
    Error (Printf.sprintf "%s: M=%d below the feasible minimum" label m)
  else
    let ub = upper_bound ?extra_orders ~key g ~m in
    if b > float_of_int ub then
      Error (Printf.sprintf "%s M=%d: bound %g exceeds schedule I/O %d" label m b ub)
    else Ok ()

(* Run checks in order; the first failure is the answer's verdict. *)
let all_ok checks bounds =
  match List.find_map (fun c -> match c () with Ok () -> None | Error e -> Some e) checks with
  | None -> Ok bounds
  | Some e -> Error e

(* Time [Spectral_bound.compute] on an outcome's eigenvalues: the
   k-maximization, which the solver does not span on its own. *)
let sample_maximize (o : Graphio_core.Solver.outcome) =
  if Array.length o.eigenvalues > 0 then begin
    let r = o.result in
    ignore
      (sample_time "core.maximize_s" (fun () ->
           Graphio_core.Spectral_bound.compute ~n:r.n ~m:r.m ~p:r.p
             ~eigenvalues:o.eigenvalues ()))
  end

(* Time the closed-form spectrum of a recognized graph. *)
let sample_recognized_spectrum g =
  match Graphio_recognize.Recognize.recognize g with
  | Some family ->
      ignore
        (sample_time "recognize.spectrum_s" (fun () ->
             Graphio_recognize.Recognize.spectrum family))
  | None -> ()

(* Child processes still running; the harness reaps them on exit. *)
let children : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !children

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
