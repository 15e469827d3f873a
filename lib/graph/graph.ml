module Tensor = Taco_tensor.Tensor
module Dense = Taco_tensor.Dense
module Coo = Taco_tensor.Coo
module Format = Taco_tensor.Format
module Semiring = Taco_ir.Semiring
module I = Taco_ir.Index_notation
module Schedule = Taco_ir.Schedule
open Taco_ir.Var

type backend = Taco_exec.Compile.backend

let ( let* ) = Result.bind

let dflat r = Taco_support.Diag.flatten r

let vi = Index_var.make "i"

let vj = Index_var.make "j"

let backend_tag = function `Closure -> "closure" | `Native -> "native"

(* Compiled-kernel cache keyed by operation, semiring, formats and
   backend (the backend is part of the key so a suite can compare
   executors without evicting each other's kernels). *)
let cache : Taco.compiled Taco.Memo.t = Taco.Memo.create ~name:"graph" ~capacity:64

let cache_key op sr backend fmts =
  String.concat "|"
    (op :: sr.Semiring.name :: backend_tag backend :: List.map Format.to_string fmts)

let compiled ~key build = Taco.Memo.find_or_build_result cache key build

let cache_clear () = Taco.Memo.clear cache

let dense_vector arr = Tensor.of_dense (Dense.of_buffer [| Array.length arr |] arr) Format.dense_vector

let spmv ?(backend = `Closure) sr a x =
  if Tensor.order a <> 2 || Tensor.order x <> 1 then
    Error "Graph.spmv: expected a matrix and a vector"
  else begin
    let fmt_a = Tensor.format a and fmt_x = Tensor.format x in
    let yv = Tensor_var.make "y" ~order:1 ~format:Format.dense_vector in
    let av = Tensor_var.make "A" ~order:2 ~format:fmt_a in
    let xv = Tensor_var.make "x" ~order:1 ~format:fmt_x in
    let key = cache_key "spmv" sr backend [ fmt_a; fmt_x ] in
    let* kern =
      compiled ~key (fun () ->
          let stmt =
            I.assign yv [ vi ] (I.sum vj (I.Mul (I.access av [ vi; vj ], I.access xv [ vj ])))
          in
          let* sched = Schedule.of_index_notation stmt in
          dflat (Taco.compile ~name:("spmv_" ^ sr.Semiring.name) ~semiring:sr ~backend sched))
    in
    dflat (Taco.run kern ~inputs:[ (av, a); (xv, x) ])
  end

let vadd ?(backend = `Closure) sr x y =
  if Tensor.order x <> 1 || Tensor.order y <> 1 then
    Error "Graph.vadd: expected two vectors"
  else begin
    let fmt_x = Tensor.format x and fmt_y = Tensor.format y in
    let zv = Tensor_var.make "z" ~order:1 ~format:Format.dense_vector in
    let xv = Tensor_var.make "x" ~order:1 ~format:fmt_x in
    let yv = Tensor_var.make "w" ~order:1 ~format:fmt_y in
    let key = cache_key "vadd" sr backend [ fmt_x; fmt_y ] in
    let* kern =
      compiled ~key (fun () ->
          let stmt =
            I.assign zv [ vi ] (I.Add (I.access xv [ vi ], I.access yv [ vi ]))
          in
          let* sched = Schedule.of_index_notation stmt in
          dflat (Taco.compile ~name:("vadd_" ^ sr.Semiring.name) ~semiring:sr ~backend sched))
    in
    dflat (Taco.run kern ~inputs:[ (xv, x); (yv, y) ])
  end

let fixpoint ?(max_iters = 10_000) step init =
  let rec go it state =
    if it >= max_iters then
      Error (Printf.sprintf "fixpoint: no convergence after %d iterations" max_iters)
    else
      let* next = step it state in
      match next with None -> Ok (state, it) | Some s -> go (it + 1) s
  in
  go 0 init

let square_adjacency ~op a =
  if Tensor.order a <> 2 then Error (op ^ ": expected an adjacency matrix")
  else
    let dims = Tensor.dims a in
    if dims.(0) <> dims.(1) then Error (op ^ ": adjacency matrix must be square")
    else Ok dims.(0)

(* --- PageRank --------------------------------------------------------- *)

let pagerank ?(backend = `Closure) ?(damping = 0.85) ?(tol = 1e-12) ?(max_iters = 1_000)
    a =
  let* n = square_adjacency ~op:"Graph.pagerank" a in
  if n = 0 then Ok ([||], 0)
  else begin
    (* Column-stochastic transition matrix P(j, i) = a(i, j) / outdeg(i),
       so ranks flow along edges under a plain (+, ×) SpMV. *)
    let outdeg = Array.make n 0. in
    Tensor.iteri_stored (fun c v -> if v <> 0. then outdeg.(c.(0)) <- outdeg.(c.(0)) +. 1.) a;
    let coo = Coo.create [| n; n |] in
    Tensor.iteri_stored
      (fun c v -> if v <> 0. then Coo.push coo [| c.(1); c.(0) |] (1. /. outdeg.(c.(0))))
      a;
    let p = Tensor.pack coo Format.csr in
    let uniform = 1. /. float_of_int n in
    let r0 = Array.make n uniform in
    let step _it r =
      let* pr = spmv ~backend Semiring.plus_times p (dense_vector r) in
      let pr = Tensor.vals pr in
      let dangling =
        let m = ref 0. in
        Array.iteri (fun i ri -> if outdeg.(i) = 0. then m := !m +. ri) r;
        !m
      in
      let base = ((1. -. damping) +. (damping *. dangling)) *. uniform in
      let r' = Array.map (fun x -> base +. (damping *. x)) pr in
      let delta = ref 0. in
      Array.iteri (fun i x -> delta := !delta +. abs_float (x -. r.(i))) r';
      if !delta < tol then Ok None else Ok (Some r')
    in
    let* r, iters = fixpoint ~max_iters step r0 in
    Ok (r, iters)
  end

(* --- BFS -------------------------------------------------------------- *)

let bfs ?(backend = `Closure) a ~src =
  let* n = square_adjacency ~op:"Graph.bfs" a in
  if src < 0 || src >= n then Error "Graph.bfs: source out of range"
  else begin
    (* Frontier propagation next(j) = ⊕_i f(i) ⊗ a(i,j) over or-and is
       an SpMV of the transposed adjacency. *)
    let at = Taco_ops.Ops.transpose a in
    let levels = Array.make n (-1) in
    levels.(src) <- 0;
    let f0 = Array.make n 0. in
    f0.(src) <- 1.;
    let step it f =
      let* nf = spmv ~backend Semiring.bool_or_and at (dense_vector f) in
      let nf = Tensor.vals nf in
      let frontier = Array.make n 0. in
      let any = ref false in
      Array.iteri
        (fun i x ->
          if x <> 0. && levels.(i) < 0 then begin
            levels.(i) <- it + 1;
            frontier.(i) <- 1.;
            any := true
          end)
        nf;
      if !any then Ok (Some frontier) else Ok None
    in
    let* _, iters = fixpoint ~max_iters:(n + 1) step f0 in
    Ok (levels, iters)
  end

(* --- Bellman-Ford ----------------------------------------------------- *)

let bellman_ford ?(backend = `Closure) a ~src =
  let* n = square_adjacency ~op:"Graph.bellman_ford" a in
  if src < 0 || src >= n then Error "Graph.bellman_ford: source out of range"
  else begin
    let neg = ref false in
    Tensor.iteri_stored (fun _ v -> if v < 0. then neg := true) a;
    if !neg then Error "Graph.bellman_ford: negative edge weights are not supported"
    else begin
      let at = Taco_ops.Ops.transpose a in
      let d0 = Array.make n infinity in
      d0.(src) <- 0.;
      let step _it d =
        let dv = dense_vector d in
        (* relax(j) = min_i (d(i) + w(i,j)): a min-plus SpMV, where the
           +inf semiring zero makes absent edges non-contributing. *)
        let* relax = spmv ~backend Semiring.min_plus at dv in
        let* d' = vadd ~backend Semiring.min_plus relax dv in
        let d' = Tensor.vals d' in
        if Array.for_all2 (fun x y -> x = y) d' d then Ok None else Ok (Some d')
      in
      let* d, iters = fixpoint ~max_iters:(n + 1) step d0 in
      Ok (d, iters)
    end
  end

(* --- Triangle counting ------------------------------------------------ *)

let triangle_count ?(backend = `Closure) a =
  let* n = square_adjacency ~op:"Graph.triangle_count" a in
  if n = 0 then Ok 0.
  else begin
    let fmt = Tensor.format a in
    let av = Tensor_var.make "A" ~order:2 ~format:fmt in
    let bv = Tensor_var.make "B" ~order:2 ~format:fmt in
    let cv = Tensor_var.make "C" ~order:2 ~format:Format.csr in
    let sr = Semiring.plus_times in
    (* Paths of length 2: C = A·A, a (+, ×) spgemm (workspaced by the
       autoscheduler). *)
    let* kern_mm =
      compiled ~key:(cache_key "tri_spgemm" sr backend [ fmt ]) (fun () ->
          let vk = Index_var.make "k" in
          let stmt =
            I.assign cv [ vi; vj ]
              (I.sum vk (I.Mul (I.access av [ vi; vk ], I.access bv [ vk; vj ])))
          in
          let* sched = Schedule.of_index_notation stmt in
          let* c, _steps = dflat (Taco.auto_compile ~name:"tri_spgemm" ~backend sched) in
          Ok c)
    in
    let* c2 = dflat (Taco.run kern_mm ~inputs:[ (av, a); (bv, a) ]) in
    (* Closing edges: mask the path count by the adjacency and sum.
       Every triangle is counted once per corner and direction. *)
    let alpha = Tensor_var.make "alpha" ~order:0 ~format:(Format.of_levels []) in
    let mv = Tensor_var.make "M" ~order:2 ~format:fmt in
    let pv = Tensor_var.make "P" ~order:2 ~format:(Tensor.format c2) in
    let* kern_in =
      compiled ~key:(cache_key "tri_inner" sr backend [ fmt; Tensor.format c2 ]) (fun () ->
          let stmt =
            I.assign alpha []
              (I.sum vi
                 (I.sum vj (I.Mul (I.access mv [ vi; vj ], I.access pv [ vi; vj ]))))
          in
          let* sched = Schedule.of_index_notation stmt in
          dflat (Taco.compile ~name:"tri_inner" ~backend sched))
    in
    let* masked = dflat (Taco.run kern_in ~inputs:[ (mv, a); (pv, c2) ]) in
    Ok ((Tensor.vals masked).(0) /. 6.)
  end
