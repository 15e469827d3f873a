(* Golden-snapshot generator: prints the C rendering of one of the three
   paper kernels (SpGEMM, SpAdd, MTTKRP) as lowered, sequential ([seq])
   or parallelized over the outer index ([par]) — the parallel snapshot
   pins the `#pragma omp parallel for` annotation and the ordered-append
   comment. test/dune diffs the output against committed snapshots so
   lowering changes stay reviewable as text diffs. Each snapshot is one
   translation unit, and test/dune checks that every one compiles
   warning-free with OpenMP on. Regenerate with `dune promote`. *)

open Taco

let get = function Ok x -> x | Error e -> failwith e

let vi = ivar "i"

let vj = ivar "j"

let vk = ivar "k"

let vl = ivar "l"

(* SpGEMM: A = B·C, all CSR, workspace transformation (paper Fig. 4). *)
let spgemm_info ?parallel () =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (sum vk (Mul (access b [ vi; vk ], access c [ vk; vj ]))) in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vk vj sched) in
  let w = workspace "w" Format.dense_vector in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk ]), Cin.Access (Cin.access c [ vk; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  get
    (Lower.lower ~name:"spgemm_ws" ?parallel
       ~mode:(Lower.Assemble { emit_values = true; sorted = true })
       (Schedule.stmt sched))

(* SpAdd: A = B + C, all CSR, two-way merge (paper Fig. 5a). *)
let spadd_info ?parallel () =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (Add (access b [ vi; vj ], access c [ vi; vj ])) in
  get
    (Lower.lower ~name:"spadd_merge" ?parallel
       ~mode:(Lower.Assemble { emit_values = true; sorted = true })
       (Schedule.stmt (get (Schedule.of_index_notation stmt))))

(* MTTKRP: A(i,j) = Σk Σl B(i,k,l)·C(l,j)·D(k,j), CSF operand, dense
   workspace over j (paper §VIII-C). *)
let mttkrp_info ?parallel () =
  let a = tensor "A" Format.dense_matrix in
  let b = tensor "B" (Format.csf 3) in
  let c = tensor "C" Format.dense_matrix in
  let d = tensor "D" Format.dense_matrix in
  let open Index_notation in
  let stmt =
    assign a [ vi; vj ]
      (sum vk
         (sum vl (Mul (Mul (access b [ vi; vk; vl ], access c [ vl; vj ]), access d [ vk; vj ]))))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vj vk sched) in
  let sched = get (Schedule.reorder vj vl sched) in
  let w = workspace "w" Format.dense_vector in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk; vl ]), Cin.Access (Cin.access c [ vl; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  get (Lower.lower ~name:"mttkrp_ws" ?parallel ~mode:Lower.Compute (Schedule.stmt sched))

(* Semiring SpMV: y(i) = ⊕j A(i,j) ⊗ x(j) under min-plus or boolean
   or-and. The snapshot pins the semiring combine/reduce rendering
   (fmin over +, short-circuiting or over 0./1.) and the zeroing path:
   min-plus must fill the result with INFINITY instead of memset. *)
let spmv_sr_info ?parallel sr =
  let a = tensor "A" Format.csr in
  let x = tensor "x" Format.dense_vector in
  let y = tensor "y" Format.dense_vector in
  let open Index_notation in
  let stmt = assign y [ vi ] (sum vj (Mul (access a [ vi; vj ], access x [ vj ]))) in
  get
    (Lower.lower
       ~name:("spmv_" ^ Semiring.to_string sr)
       ~semiring:sr ?parallel ~mode:Lower.Compute
       (Schedule.stmt (get (Schedule.of_index_notation stmt))))

let () =
  let usage () =
    prerr_endline
      "usage: golden_gen (spgemm|spadd|mttkrp|spmv_minplus|spmv_boolor) (seq|par)";
    exit 2
  in
  if Array.length Sys.argv <> 3 then usage ();
  let parallel =
    match Sys.argv.(2) with "seq" -> None | "par" -> Some vi | _ -> usage ()
  in
  let info =
    match Sys.argv.(1) with
    | "spgemm" -> spgemm_info ?parallel ()
    | "spadd" -> spadd_info ?parallel ()
    | "mttkrp" -> mttkrp_info ?parallel ()
    | "spmv_minplus" -> spmv_sr_info ?parallel Semiring.min_plus
    | "spmv_boolor" -> spmv_sr_info ?parallel Semiring.bool_or_and
    | _ -> usage ()
  in
  print_string (Codegen_c.emit info.Lower.kernel)
