(* Oracle tests for the graph workloads (lib/graph): BFS and
   Bellman-Ford against textbook OCaml implementations on random
   digraphs (including disconnected ones), PageRank against a dense
   power-iteration oracle, triangle counts against brute force. Each
   workload runs under both the closure and the native executor. *)

module G = Taco_graph.Graph
module T = Taco_tensor.Tensor
module Coo = Taco_tensor.Coo
module F = Taco_tensor.Format
module Prng = Taco_support.Prng

let get = Helpers.get

let backends = [ ("closure", `Closure); ("native", `Native) ]

(* --- graph builders --------------------------------------------------- *)

(* Pack a weighted edge list as a CSR adjacency matrix. *)
let adjacency n edges =
  let coo = Coo.create [| n; n |] in
  List.iter (fun (i, j, w) -> Coo.push coo [| i; j |] w) edges;
  T.pack coo F.csr

(* A random simple digraph: each ordered pair (i, j), i <> j, carries an
   edge with probability [p]; weights drawn from (0.5, 5.5). *)
let random_digraph prng n p =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Prng.bool prng p then
        edges := (i, j, 0.5 +. (5. *. Prng.float prng)) :: !edges
    done
  done;
  !edges

(* A random undirected simple graph as a symmetric 0/1 edge list. *)
let random_undirected prng n p =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.bool prng p then edges := (i, j, 1.) :: (j, i, 1.) :: !edges
    done
  done;
  !edges

(* --- textbook oracles ------------------------------------------------- *)

let bfs_oracle n edges src =
  let adj = Array.make n [] in
  List.iter (fun (i, j, _) -> adj.(i) <- j :: adj.(i)) edges;
  let levels = Array.make n (-1) in
  levels.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    List.iter
      (fun v ->
        if levels.(v) < 0 then begin
          levels.(v) <- levels.(u) + 1;
          Queue.add v q
        end)
      adj.(u)
  done;
  levels

let bellman_ford_oracle n edges src =
  let dist = Array.make n infinity in
  dist.(src) <- 0.;
  for _round = 1 to n - 1 do
    List.iter
      (fun (i, j, w) -> if dist.(i) +. w < dist.(j) then dist.(j) <- dist.(i) +. w)
      edges
  done;
  dist

let pagerank_oracle n edges ~damping ~tol ~max_iters =
  let a = Array.make_matrix n n 0. in
  List.iter (fun (i, j, _) -> a.(i).(j) <- 1.) edges;
  let outdeg = Array.map (fun row -> Array.fold_left ( +. ) 0. row) a in
  let uniform = 1. /. float_of_int n in
  let r = ref (Array.make n uniform) in
  (try
     for _it = 1 to max_iters do
       let pr =
         Array.init n (fun i ->
             let acc = ref 0. in
             for j = 0 to n - 1 do
               if a.(j).(i) <> 0. then acc := !acc +. (!r.(j) /. outdeg.(j))
             done;
             !acc)
       in
       let dangling =
         let m = ref 0. in
         Array.iteri (fun i ri -> if outdeg.(i) = 0. then m := !m +. ri) !r;
         !m
       in
       let base = ((1. -. damping) +. (damping *. dangling)) *. uniform in
       let r' = Array.map (fun x -> base +. (damping *. x)) pr in
       let delta = ref 0. in
       Array.iteri (fun i x -> delta := !delta +. abs_float (x -. !r.(i))) r';
       r := r';
       if !delta < tol then raise Exit
     done
   with Exit -> ());
  !r

let triangles_oracle n edges =
  let a = Array.make_matrix n n false in
  List.iter (fun (i, j, _) -> a.(i).(j) <- true) edges;
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      for k = j + 1 to n - 1 do
        if a.(i).(j) && a.(j).(k) && a.(i).(k) then incr count
      done
    done
  done;
  !count

(* --- checks ----------------------------------------------------------- *)

let levels_t = Alcotest.(array int)

let check_bfs ~msg backend n edges src =
  let got, _iters = get (G.bfs ~backend (adjacency n edges) ~src) in
  Alcotest.check levels_t msg (bfs_oracle n edges src) got

let check_bf ~msg backend n edges src =
  let got, _iters = get (G.bellman_ford ~backend (adjacency n edges) ~src) in
  let want = bellman_ford_oracle n edges src in
  Array.iteri
    (fun i w ->
      if w = infinity then
        Alcotest.(check bool) (Printf.sprintf "%s [%d] unreachable" msg i) true
          (got.(i) = infinity)
      else
        Alcotest.(check (float 1e-9)) (Printf.sprintf "%s [%d]" msg i) w got.(i))
    want

(* --- test cases ------------------------------------------------------- *)

let test_bfs_known (name, backend) () =
  (* A path 0→1→2→3, a fork 0→2, and an unreachable pocket {4, 5}. *)
  let edges = [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (0, 2, 1.); (4, 5, 1.) ] in
  check_bfs ~msg:(name ^ " path+pocket") backend 6 edges 0;
  check_bfs ~msg:(name ^ " from the pocket") backend 6 edges 4

let test_bfs_random (name, backend) () =
  let prng = Prng.create 1101 in
  for case = 1 to 8 do
    let n = 2 + Prng.int prng 28 in
    let p = 0.02 +. (0.15 *. Prng.float prng) in
    let edges = random_digraph prng n p in
    let src = Prng.int prng n in
    check_bfs ~msg:(Printf.sprintf "%s random case %d (n=%d)" name case n) backend n
      edges src
  done

let test_bf_known (name, backend) () =
  (* Two routes 0→2: direct (5) and via 1 (1 + 1); node 3 unreachable. *)
  let edges = [ (0, 2, 5.); (0, 1, 1.); (1, 2, 1.); (3, 0, 2.) ] in
  check_bf ~msg:(name ^ " two routes") backend 4 edges 0

let test_bf_random (name, backend) () =
  let prng = Prng.create 2202 in
  for case = 1 to 8 do
    let n = 2 + Prng.int prng 28 in
    let p = 0.02 +. (0.15 *. Prng.float prng) in
    let edges = random_digraph prng n p in
    let src = Prng.int prng n in
    check_bf ~msg:(Printf.sprintf "%s random case %d (n=%d)" name case n) backend n
      edges src
  done

let test_bf_rejects_negative (name, backend) () =
  let a = adjacency 2 [ (0, 1, -1.) ] in
  let msg = Helpers.get_err "bellman_ford" (G.bellman_ford ~backend a ~src:0) in
  Alcotest.(check bool)
    (name ^ " names negative weights")
    true
    (Helpers.contains msg "negative")

let test_pagerank (name, backend) () =
  let prng = Prng.create 3303 in
  for case = 1 to 5 do
    let n = 2 + Prng.int prng 23 in
    let p = 0.05 +. (0.2 *. Prng.float prng) in
    (* 0/1 adjacency; includes dangling nodes whenever a row is empty. *)
    let edges = List.map (fun (i, j, _) -> (i, j, 1.)) (random_digraph prng n p) in
    let damping = 0.85 and tol = 1e-13 and max_iters = 2_000 in
    let got, _iters =
      get (G.pagerank ~backend ~damping ~tol ~max_iters (adjacency n edges))
    in
    let want = pagerank_oracle n edges ~damping ~tol ~max_iters in
    Array.iteri
      (fun i w ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "%s case %d rank[%d]" name case i)
          w got.(i))
      want;
    let total = Array.fold_left ( +. ) 0. got in
    Alcotest.(check (float 1e-9)) (Printf.sprintf "%s case %d sums to 1" name case) 1. total
  done

let test_triangles (name, backend) () =
  let prng = Prng.create 4404 in
  for case = 1 to 5 do
    let n = 4 + Prng.int prng 46 in
    let p = 0.05 +. (0.2 *. Prng.float prng) in
    let edges = random_undirected prng n p in
    let got = get (G.triangle_count ~backend (adjacency n edges)) in
    let want = float_of_int (triangles_oracle n edges) in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "%s case %d (n=%d)" name case n)
      want got
  done

(* Satellite regression: a min-plus kernel must not zero its dense
   result with memset — the semiring zero is +inf, not bit-zero. If the
   lowered kernel ever reverts to memset, every reachable node's
   distance would collapse to min(0, ...) = 0 and Bellman-Ford would
   return all-zeros. *)
let test_minplus_zeroing_regression () =
  let src =
    let open Taco in
    let a = tensor "A" Format.csr in
    let x = tensor "x" Format.dense_vector in
    let y = tensor "y" Format.dense_vector in
    let i = ivar "i" and j = ivar "j" in
    let stmt =
      Index_notation.assign y [ i ]
        (Index_notation.sum j
           (Index_notation.Mul
              (Index_notation.access a [ i; j ], Index_notation.access x [ j ])))
    in
    let sched = get (Schedule.of_index_notation stmt) in
    let c = Helpers.getd (compile ~name:"spmv_minplus" ~semiring:Semiring.min_plus sched) in
    c_source c
  in
  Alcotest.(check bool) "no memset of the result" false (Helpers.contains src "memset(y_vals");
  Alcotest.(check bool) "fill loop present" true (Helpers.contains src "y_vals[taco_fi] = INFINITY");
  (* End-to-end: distances on a diamond where memset-zeroing would
     return 0 for every node. *)
  let edges = [ (0, 1, 2.); (0, 2, 7.); (1, 2, 3.); (2, 3, 1.) ] in
  List.iter
    (fun (name, backend) ->
      check_bf ~msg:("regression " ^ name) backend 4 edges 0)
    backends

let per_backend name f = List.map (fun b -> Alcotest.test_case (name ^ " " ^ fst b) `Quick (f b)) backends

let () =
  Alcotest.run "graph"
    [
      ("bfs", per_backend "known" test_bfs_known @ per_backend "random" test_bfs_random);
      ( "bellman-ford",
        per_backend "known" test_bf_known
        @ per_backend "random" test_bf_random
        @ per_backend "negative" test_bf_rejects_negative );
      ("pagerank", per_backend "oracle" test_pagerank);
      ("triangles", per_backend "brute-force" test_triangles);
      ( "zeroing",
        [ Alcotest.test_case "min-plus fill regression" `Quick test_minplus_zeroing_regression ]
      );
    ]
