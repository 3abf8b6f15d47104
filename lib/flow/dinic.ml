(* Arcs live in flat arrays grouped by tail node: the arcs leaving [u] are
   [first.(u) .. first.(u+1) - 1].  Every edge owns one forward arc and one
   reverse arc of original capacity 0, each holding the index of the other
   in [rev].  [cap] is the residual capacity of the current solve and
   [cap0] the original one. *)
type t = {
  n : int;
  mutable proto : (int * int * int) list;  (* (src, dst, cap), reversed *)
  mutable n_edges : int;
  mutable frozen : bool;
  mutable first : int array;
  mutable dst : int array;
  mutable cap : int array;
  mutable cap0 : int array;
  mutable rev : int array;
  mutable arc_of_edge : int array;
  level : int array;
  iter : int array;
  queue : int array;
}

let inf_cap = max_int / 4

let create n =
  if n < 0 then invalid_arg "Dinic.create: negative node count";
  {
    n;
    proto = [];
    n_edges = 0;
    frozen = false;
    first = [||];
    dst = [||];
    cap = [||];
    cap0 = [||];
    rev = [||];
    arc_of_edge = [||];
    level = Array.make n (-1);
    iter = Array.make n 0;
    queue = Array.make n 0;
  }

let add_edge t ~src ~dst ~cap =
  if t.frozen then invalid_arg "Dinic.add_edge: network already frozen";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Dinic.add_edge: node out of range";
  if cap < 0 then invalid_arg "Dinic.add_edge: negative capacity";
  t.proto <- (src, dst, cap) :: t.proto;
  t.n_edges <- t.n_edges + 1

let n_nodes t = t.n

(* Within a node, arcs keep the order in which their edges were added,
   forward and reverse arcs interleaved. *)
let freeze t =
  if not t.frozen then begin
    let edges = List.rev t.proto in
    t.proto <- [];
    let first = Array.make (t.n + 1) 0 in
    List.iter
      (fun (src, dst, _) ->
        first.(src + 1) <- first.(src + 1) + 1;
        first.(dst + 1) <- first.(dst + 1) + 1)
      edges;
    for u = 0 to t.n - 1 do
      first.(u + 1) <- first.(u + 1) + first.(u)
    done;
    let n_arcs = 2 * t.n_edges in
    let fill = Array.sub first 0 t.n in
    let dst_a = Array.make n_arcs 0 and cap0 = Array.make n_arcs 0 in
    let rev = Array.make n_arcs 0 and arc_of_edge = Array.make t.n_edges 0 in
    List.iteri
      (fun k (src, dst, cap) ->
        let f = fill.(src) in
        fill.(src) <- f + 1;
        let r = fill.(dst) in
        fill.(dst) <- r + 1;
        dst_a.(f) <- dst;
        cap0.(f) <- cap;
        rev.(f) <- r;
        dst_a.(r) <- src;
        rev.(r) <- f;
        arc_of_edge.(k) <- f)
      edges;
    t.first <- first;
    t.dst <- dst_a;
    t.cap <- Array.copy cap0;
    t.cap0 <- cap0;
    t.rev <- rev;
    t.arc_of_edge <- arc_of_edge;
    t.frozen <- true
  end

let set_capacity t ~edge ~cap =
  if edge < 0 || edge >= t.n_edges then
    invalid_arg "Dinic.set_capacity: edge out of range";
  if cap < 0 then invalid_arg "Dinic.set_capacity: negative capacity";
  freeze t;
  t.cap0.(t.arc_of_edge.(edge)) <- cap

let c_max_flows = Graphio_obs.Metrics.counter "flow.dinic.max_flows"
let c_bfs_phases = Graphio_obs.Metrics.counter "flow.dinic.bfs_phases"
let c_aug_paths = Graphio_obs.Metrics.counter "flow.dinic.augmenting_paths"

let bfs t ~s ~sink =
  let level = t.level and queue = t.queue in
  Array.fill level 0 t.n (-1);
  level.(s) <- 0;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  (* Stop once the sink is labelled: every shorter level is complete, and
     no augmenting path of the phase runs through the unexplored rest. *)
  while !head < !tail && level.(sink) < 0 do
    let u = queue.(!head) in
    incr head;
    for a = t.first.(u) to t.first.(u + 1) - 1 do
      let w = t.dst.(a) in
      if t.cap.(a) > 0 && level.(w) < 0 then begin
        level.(w) <- level.(u) + 1;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  level.(sink) >= 0

(* One augmenting path along the level graph, advancing [iter] past arcs
   that cannot carry more. *)
let rec dfs t ~sink u f =
  if u = sink then f
  else begin
    let pushed = ref 0 in
    let stop = t.first.(u + 1) in
    while !pushed = 0 && t.iter.(u) < stop do
      let a = t.iter.(u) in
      let w = t.dst.(a) in
      if t.cap.(a) > 0 && t.level.(w) = t.level.(u) + 1 then begin
        let d = dfs t ~sink w (min f t.cap.(a)) in
        if d > 0 then begin
          t.cap.(a) <- t.cap.(a) - d;
          let r = t.rev.(a) in
          t.cap.(r) <- t.cap.(r) + d;
          pushed := d
        end
        else t.iter.(u) <- a + 1
      end
      else t.iter.(u) <- a + 1
    done;
    !pushed
  end

let max_flow t ~s ~sink =
  if s = sink then invalid_arg "Dinic.max_flow: source equals sink";
  if s < 0 || s >= t.n || sink < 0 || sink >= t.n then
    invalid_arg "Dinic.max_flow: node out of range";
  Graphio_obs.Metrics.incr c_max_flows;
  freeze t;
  Array.blit t.cap0 0 t.cap 0 (Array.length t.cap0);
  let flow = ref 0 in
  while bfs t ~s ~sink do
    Graphio_obs.Metrics.incr c_bfs_phases;
    Array.blit t.first 0 t.iter 0 t.n;
    let continue_ = ref true in
    while !continue_ do
      let f = dfs t ~sink s inf_cap in
      if f = 0 then continue_ := false
      else begin
        Graphio_obs.Metrics.incr c_aug_paths;
        flow := !flow + f
      end
    done
  done;
  !flow

let min_cut_side t ~s =
  freeze t;
  let side = Array.make t.n false in
  let stack = Stack.create () in
  side.(s) <- true;
  Stack.push s stack;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    for a = t.first.(u) to t.first.(u + 1) - 1 do
      let w = t.dst.(a) in
      if t.cap.(a) > 0 && not side.(w) then begin
        side.(w) <- true;
        Stack.push w stack
      end
    done
  done;
  side

let cut_value t side =
  if Array.length side <> t.n then invalid_arg "Dinic.cut_value: side length mismatch";
  freeze t;
  let acc = ref 0 in
  for u = 0 to t.n - 1 do
    if side.(u) then
      for a = t.first.(u) to t.first.(u + 1) - 1 do
        if t.cap0.(a) > 0 && not side.(t.dst.(a)) then acc := !acc + t.cap0.(a)
      done
  done;
  !acc
