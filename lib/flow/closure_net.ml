open Graphio_graph

(* Node layout: u_in = 2u, u_out = 2u + 1, s = 2n, t = 2n + 1.  Edge ids
   follow creation order: the split edge of u is u, the two closure arcs
   of every DAG edge follow, then s -> u_in at [n + 2m + u] and
   u_in -> t at [2n + 2m + u].  Split and attachment edges start at
   capacity 0; each cut sets them. *)
type t = {
  g : Dag.t;
  n : int;
  net : Dinic.t;
  s_edge : int;
  t_edge : int;
  all : bool array;
  (* Scratch for one traversal: marks, and the marked vertices in
     discovery order (which doubles as the BFS queue). *)
  mark : bool array;
  mark2 : bool array;
  reached : int array;
}

let create g =
  let n = Dag.n_vertices g and m = Dag.n_edges g in
  let net = Dinic.create ((2 * n) + 2) in
  let s = 2 * n and t = (2 * n) + 1 in
  for u = 0 to n - 1 do
    Dinic.add_edge net ~src:(2 * u) ~dst:((2 * u) + 1) ~cap:0
  done;
  Dag.iter_edges g (fun u w ->
      (* u interior => w in S *)
      Dinic.add_edge net ~src:((2 * u) + 1) ~dst:(2 * w) ~cap:Dinic.inf_cap;
      (* downward closure: w in S => u in S *)
      Dinic.add_edge net ~src:(2 * w) ~dst:(2 * u) ~cap:Dinic.inf_cap);
  for u = 0 to n - 1 do
    Dinic.add_edge net ~src:s ~dst:(2 * u) ~cap:0
  done;
  for u = 0 to n - 1 do
    Dinic.add_edge net ~src:(2 * u) ~dst:t ~cap:0
  done;
  {
    g;
    n;
    net;
    s_edge = n + (2 * m);
    t_edge = (2 * n) + (2 * m);
    all = Array.make n true;
    mark = Array.make n false;
    mark2 = Array.make n false;
    reached = Array.make n 0;
  }

let n_vertices t = t.n

(* Marks every vertex reachable from [v] through [iter] (v itself
   excluded), recording them in [reached]; returns how many.  [mark]
   must be clear on entry. *)
let reach iter g mark reached v =
  let k = ref 0 in
  let visit w =
    if not mark.(w) then begin
      mark.(w) <- true;
      reached.(!k) <- w;
      incr k
    end
  in
  iter g v visit;
  let i = ref 0 in
  while !i < !k do
    iter g reached.(!i) visit;
    incr i
  done;
  !k

let clear mark reached k =
  for i = 0 to k - 1 do
    mark.(reached.(i)) <- false
  done

let descendants g v =
  let n = Dag.n_vertices g in
  let mark = Array.make n false in
  ignore (reach Dag.iter_succ g mark (Array.make n 0) v);
  mark

let cut t ~counted v =
  if Array.length counted <> t.n then
    invalid_arg "Closure_net.cut: counted length mismatch";
  if Dag.out_degree t.g v = 0 then 0
  else begin
    let k = reach Dag.iter_succ t.g t.mark t.reached v in
    for u = 0 to t.n - 1 do
      Dinic.set_capacity t.net ~edge:u ~cap:(if counted.(u) then 1 else 0);
      Dinic.set_capacity t.net ~edge:(t.s_edge + u)
        ~cap:(if u = v then Dinic.inf_cap else 0);
      Dinic.set_capacity t.net ~edge:(t.t_edge + u)
        ~cap:(if t.mark.(u) then Dinic.inf_cap else 0)
    done;
    clear t.mark t.reached k;
    Dinic.max_flow t.net ~s:(2 * t.n) ~sink:((2 * t.n) + 1)
  end

let wavefront t v = cut t ~counted:t.all v

(* Two feasible sets for [v]'s cut: its ancestor closure anc*(v) (v and
   all its ancestors) and V \ desc(v).  Both are downward-closed, contain
   v and avoid desc(v), so each wavefront size bounds C(v) from above. *)
let upper_bound t v =
  let g = t.g in
  (* |wavefront(V \ desc v)|: vertices outside desc(v) with a successor
     inside it — the distinct outside predecessors of desc(v). *)
  let k = reach Dag.iter_succ g t.mark t.reached v in
  let rest = ref 0 in
  for i = 0 to k - 1 do
    Dag.iter_pred g t.reached.(i) (fun p ->
        if (not t.mark.(p)) && not t.mark2.(p) then begin
          t.mark2.(p) <- true;
          incr rest
        end)
  done;
  for i = 0 to k - 1 do
    Dag.iter_pred g t.reached.(i) (fun p -> t.mark2.(p) <- false)
  done;
  clear t.mark t.reached k;
  (* |wavefront(anc* v)|: members with a successor outside it. *)
  let k = reach Dag.iter_pred g t.mark t.reached v in
  t.mark.(v) <- true;
  let leaves u =
    let out = ref false in
    Dag.iter_succ g u (fun w -> if not t.mark.(w) then out := true);
    !out
  in
  let anc = ref (if leaves v then 1 else 0) in
  for i = 0 to k - 1 do
    if leaves t.reached.(i) then incr anc
  done;
  t.mark.(v) <- false;
  clear t.mark t.reached k;
  min !rest !anc
