(* Sample statistics over request latencies and per-request layer times. *)

(* [q]-quantile by linear interpolation between closest ranks (the
   "linear" rule: position q * (n - 1) in the sorted sample). *)
let quantile q xs =
  match Array.length xs with
  | 0 -> 0.0
  | n ->
      let s = Array.copy xs in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median xs = quantile 0.5 xs

let mean xs =
  match Array.length xs with
  | 0 -> 0.0
  | n -> Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Peak resident set (VmHWM) of a process, in MiB, read from
   /proc/<pid>/status; 0 when the file is unavailable. *)
let peak_rss_mb ?(pid = "self") () =
  match
    In_channel.with_open_text
      (Printf.sprintf "/proc/%s/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
        0.0
        (String.split_on_char '\n' status)
