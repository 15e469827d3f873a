(* Graph workload benchmarks: PageRank, BFS, Bellman-Ford and triangle
   counting from lib/graph — semiring-generalized compiled kernels
   iterated to fixpoint — timed under both the closure executor and the
   native C backend on one random graph per shape. The two backends'
   results must be bit-identical (the fixpoint drivers are deterministic
   and the native build pins -ffp-contract=off, so iterate sequences
   coincide exactly); divergence fails the bench. Results go to stdout
   as a table and to BENCH_graph.json for the @bench-drift gate. *)

open Taco
module G = Taco_graph.Graph
module Prng = Taco_support.Prng
module Coo = Taco_tensor.Coo

let get = Harness.get

(* A directed graph as a CSR 0/1 (or positively weighted) adjacency; an
   undirected one as its symmetric closure. *)
let random_graph ~seed ~nodes ~edge_prob ~kind =
  let prng = Prng.create seed in
  let coo = Coo.create [| nodes; nodes |] in
  let edges = ref 0 in
  (match kind with
  | `Undirected ->
      for i = 0 to nodes - 1 do
        for j = i + 1 to nodes - 1 do
          if Prng.bool prng edge_prob then begin
            Coo.push coo [| i; j |] 1.;
            Coo.push coo [| j; i |] 1.;
            edges := !edges + 2
          end
        done
      done
  | `Weighted ->
      for i = 0 to nodes - 1 do
        for j = 0 to nodes - 1 do
          if i <> j && Prng.bool prng edge_prob then begin
            Coo.push coo [| i; j |] (0.5 +. (5. *. Prng.float prng));
            incr edges
          end
        done
      done
  | `Directed ->
      for i = 0 to nodes - 1 do
        for j = 0 to nodes - 1 do
          if i <> j && Prng.bool prng edge_prob then begin
            Coo.push coo [| i; j |] 1.;
            incr edges
          end
        done
      done);
  (Tensor.pack coo Format.csr, !edges)

type workload = {
  g_name : string;
  (* Full fixpoint under a backend: (cells for the identity gate, iteration count). *)
  g_run : G.backend -> float array * int;
}

(* The two backends' full fixpoints agree when cells and iteration
   counts are bit-identical; then both are timed together. Kernels are
   compiled once per (op, semiring, backend) by lib/graph's cache, so
   only the first native run pays the C compile. *)
let run_workload ~reps ~native_available w =
  let _, iters = w.g_run `Closure in
  let records =
    Harness.best_of_batches ~reps ~workload:w.g_name
      ~equal:(fun (c1, i1) (c2, i2) ->
        Tensor.bit_identical (G.dense_vector c1) (G.dense_vector c2) && i1 = i2)
      ~info:(fun _ -> [ ("iterations", Json.Int iters) ])
      (List.map
         (fun (name, b) -> (name, (fun () -> w.g_run b), fun () -> ignore (w.g_run b)))
         [ ("closure", `Closure); ("native", `Native) ])
  in
  let closure_s = Harness.time_of records "closure" and native_s = Harness.time_of records "native" in
  Harness.row "%-14s | %12.5f %12.5f %8.2fx %6d %5s" w.g_name closure_s native_s
    (closure_s /. native_s) iters
    (if not (List.for_all (fun r -> r.Harness.agrees) records) then "DIFF"
     else if not native_available then "degr"
     else "bit=");
  (records, closure_s /. native_s)

let run ~seed ~reps ~nodes ~out =
  Harness.header "graph workloads: semiring kernels to fixpoint, closure vs native";
  let native_available = Native.available () in
  Printf.printf "compiler: %s (%s); %d nodes\n\n" (Native.compiler ())
    (if native_available then "available" else "NOT available - native degrades to closures")
    nodes;
  (* Average out-degree ~8 independent of the node count. *)
  let edge_prob = Float.min 0.5 (8. /. float_of_int nodes) in
  let adj, dir_edges = random_graph ~seed ~nodes ~edge_prob ~kind:`Directed in
  let wadj, _ = random_graph ~seed:(seed + 1) ~nodes ~edge_prob ~kind:`Weighted in
  let uadj, undir_edges = random_graph ~seed:(seed + 2) ~nodes ~edge_prob ~kind:`Undirected in
  Printf.printf "directed: %d edges; undirected: %d edges\n\n" dir_edges undir_edges;
  let workloads =
    [
      {
        g_name = "pagerank";
        g_run =
          (fun b ->
            let r, it = get (G.pagerank ~backend:b adj) in
            (r, it));
      };
      {
        g_name = "bfs";
        g_run =
          (fun b ->
            let levels, it = get (G.bfs ~backend:b adj ~src:0) in
            (Array.map float_of_int levels, it));
      };
      {
        g_name = "bellman_ford";
        g_run =
          (fun b ->
            let dist, it = get (G.bellman_ford ~backend:b wadj ~src:0) in
            (dist, it));
      };
      {
        g_name = "triangles";
        g_run =
          (fun b ->
            let t = get (G.triangle_count ~backend:b uadj) in
            ([| t |], 1));
      };
    ]
  in
  Harness.row "%-14s | %12s %12s %9s %6s %5s" "workload" "closure(s)" "native(s)"
    "speedup" "iters" "ok";
  let per_workload = List.map (run_workload ~reps ~native_available) workloads in
  let speedups = List.map snd per_workload in
  if native_available then
    Printf.printf "\nnative geomean speedup = %.2fx over %d workloads\n%!"
      (Harness.geomean speedups) (List.length speedups);
  Harness.report ~path:out ~bench:"graph" ~agreement:Harness.bit_identical
    ~config:
      [
        ("seed", Json.Int seed);
        ("reps", Json.Int reps);
        ("nodes", Json.Int nodes);
        ("directed_edges", Json.Int dir_edges);
        ("undirected_edges", Json.Int undir_edges);
        ( "compiler",
          Json.Obj
            [
              ("command", Json.Str (Native.compiler ()));
              ("available", Json.Bool native_available);
            ] );
      ]
    ~summary:
      [
        ( "geomean_native_speedup",
          if native_available then Json.Float (Harness.geomean speedups) else Json.Null );
      ]
    (List.concat_map fst per_workload)
