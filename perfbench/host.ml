(* Host-speed normalization.

   On the shared 2-vCPU host this benchmark was built on, the same
   CPU-bound work runs up to 2x slower from one second to the next as
   other tenants load the physical cores (process CPU time tracks wall
   time, so this is a slower CPU, not preemption).  A fixed reference
   kernel timed next to a request tracks that request's slowdown closely
   (correlation 0.89 over 1200 identical dense solves, against 0.86 for a
   memory-streaming kernel), while a kernel timed seconds away does not.

   So the kernel runs between requests, at least every [interval_s], and
   each request's latency is scaled by [reference_s] over the mean kernel
   time of the calibrations just before and just after it.  A scaled time
   reads as seconds on a host where the kernel takes [reference_s]; a
   change to graphio moves it in the same proportion as the raw time.  The
   kernel is plain OCaml float code and shares nothing with graphio. *)

let reference_s = 0.002
let interval_s = 0.05

(* eight 48x48 dense matrix products: arithmetic plus L1/L2 traffic,
   ~2 ms on the tuning host *)
let a = Array.init 48 (fun i -> Array.init 48 (fun j -> float_of_int ((i * j) mod 7)))

let kernel () =
  let s = ref 0.0 in
  for _ = 1 to 8 do
    for i = 0 to 47 do
      for j = 0 to 47 do
        let r = ref 0.0 in
        for k = 0 to 47 do
          r := !r +. (a.(i).(k) *. a.(k).(j))
        done;
        s := !s +. !r
      done
    done
  done;
  ignore (Sys.opaque_identity !s)

(* Calibrations of the current pass: (monotonic time at its end, kernel
   seconds), newest first. *)
let marks : (int * float) list ref = ref []

let calibrate () =
  let (), dt = Graphio_obs.Clock.time kernel in
  marks := (Graphio_obs.Clock.now_ns (), dt) :: !marks

let reset () = marks := []

let maybe_calibrate () =
  match !marks with
  | (t, _) :: _ when float_of_int (Graphio_obs.Clock.now_ns () - t) *. 1e-9 < interval_s -> ()
  | _ -> calibrate ()

(* Scale durations given as (start ns, end ns, seconds): each by the
   last calibration ending at or before its start and the first ending at
   or after its end. *)
let scale_all spans =
  let marks = Array.of_list (List.rev !marks) in
  let n = Array.length marks in
  Array.map
    (fun (t0, t1, dt) ->
      if n = 0 then dt
      else begin
        let lo = ref (-1) and hi = ref n in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if fst marks.(mid) <= t0 then lo := mid else hi := mid
        done;
        let before = snd marks.(max 0 !lo) in
        let j = ref (max 0 !lo) in
        while !j < n && fst marks.(!j) < t1 do incr j done;
        let after = if !j < n then snd marks.(!j) else before in
        dt *. reference_s /. (0.5 *. (before +. after))
      end)
    spans
