(* The cost-based autoscheduler: deterministic workspace naming, search
   determinism, the plan cache, cardinality estimates against ground
   truth, and the cost-vs-default invariant. *)

open Taco_ir
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module I = Index_notation
module Lower = Taco_lower.Lower
module Stats = Taco_stats.Stats
module Memo = Taco_support.Memo

let vi = Helpers.vi and vj = Helpers.vj and vk = Helpers.vk

let a = Helpers.csr_tv "A"
let b = Helpers.csr_tv "B"
let c = Helpers.csr_tv "C"
let fused = Lower.Assemble { emit_values = true; sorted = true }

let lowerable ?(mode = fused) s = Result.map ignore (Lower.lower ~mode s)

(* Unscheduled SpGEMM — the canonical statement no policy can lower
   without scheduling steps. *)
let spgemm_stmt () =
  let stmt =
    I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ])))
  in
  Schedule.stmt (Helpers.get (Schedule.of_index_notation stmt))

let spgemm_stats seed =
  let bt = Helpers.random_tensor seed [| 100; 100 |] 0.05 F.csr in
  let ct = Helpers.random_tensor (seed + 1) [| 100; 100 |] 0.05 F.csr in
  ([ ("B", Stats.of_tensor bt); ("C", Stats.of_tensor ct) ], bt, ct)

let dense_nnz d =
  let nnz = ref 0 in
  D.iteri (fun _ v -> if v <> 0. then incr nnz) d;
  float_of_int !nnz

(* --- deterministic workspace names ---------------------------------- *)

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

(* Every "ws_"-prefixed identifier in the statement's rendering. *)
let workspace_names stmt =
  let str = Cin.to_string stmt in
  let n = String.length str in
  let names = ref [] in
  let ident_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let i = ref 0 in
  while !i + 3 <= n do
    if
      String.sub str !i 3 = "ws_"
      && (!i = 0 || not (ident_char str.[!i - 1]))
    then begin
      let j = ref (!i + 3) in
      while !j < n && ident_char str.[!j] do
        incr j
      done;
      names := String.sub str !i (!j - !i) :: !names;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !names

let test_ws_names_deterministic () =
  let run () = Helpers.get (Autoschedule.run ~lowerable (spgemm_stmt ())) in
  let s1, _ = run () in
  let s2, _ = run () in
  Alcotest.(check string) "two runs produce the identical statement" (Cin.to_string s1)
    (Cin.to_string s2);
  let names = workspace_names s1 in
  Alcotest.(check bool) "at least one digest-named workspace" true (names <> []);
  List.iter
    (fun name ->
      let suffix = String.sub name 3 (String.length name - 3) in
      Alcotest.(check bool)
        (Printf.sprintf "%s is ws_<8 hex digits>" name)
        true
        (String.length suffix = 8 && String.for_all is_hex suffix))
    names

(* --- search determinism and the cost invariant ----------------------- *)

let test_search_deterministic () =
  let stats, _, _ = spgemm_stats 11 in
  let search () = Helpers.get (Autoschedule.search ~stats ~lowerable (spgemm_stmt ())) in
  let p1, _ = search () in
  let p2, _ = search () in
  Alcotest.(check string) "same chosen statement"
    (Cin.to_string p1.Autoschedule.p_stmt)
    (Cin.to_string p2.Autoschedule.p_stmt);
  Alcotest.(check (float 0.)) "same estimated cost" p1.Autoschedule.p_cost
    p2.Autoschedule.p_cost

let test_chosen_never_costlier () =
  let stats, _, _ = spgemm_stats 23 in
  let _, ex = Helpers.get (Autoschedule.search ~stats ~lowerable (spgemm_stmt ())) in
  Alcotest.(check bool) "chosen cost <= default cost" true
    (ex.Autoschedule.e_chosen_cost <= ex.Autoschedule.e_default_cost);
  (* And without stats the model still holds the invariant. *)
  let _, ex0 = Helpers.get (Autoschedule.search ~lowerable (spgemm_stmt ())) in
  Alcotest.(check bool) "holds with default stats too" true
    (ex0.Autoschedule.e_chosen_cost <= ex0.Autoschedule.e_default_cost)

(* --- plan cache ------------------------------------------------------ *)

let test_cache_hit () =
  Autoschedule.cache_clear ();
  let stats, _, _ = spgemm_stats 37 in
  let key = "test-cache|" ^ Cin.to_string (spgemm_stmt ()) in
  let p1, ex1 = Helpers.get (Autoschedule.search ~stats ~key ~lowerable (spgemm_stmt ())) in
  let p2, ex2 = Helpers.get (Autoschedule.search ~stats ~key ~lowerable (spgemm_stmt ())) in
  Alcotest.(check bool) "first search misses" false ex1.Autoschedule.e_cache_hit;
  Alcotest.(check bool) "second search hits" true ex2.Autoschedule.e_cache_hit;
  Alcotest.(check string) "cached plan is the same plan"
    (Cin.to_string p1.Autoschedule.p_stmt)
    (Cin.to_string p2.Autoschedule.p_stmt);
  let cs = Autoschedule.cache_stats () in
  Alcotest.(check int) "one hit counted" 1 cs.Memo.hits;
  Alcotest.(check bool) "cache holds the plan" true (cs.Memo.entries >= 1);
  Autoschedule.cache_clear ();
  let cs = Autoschedule.cache_stats () in
  Alcotest.(check int) "clear resets entries" 0 cs.Memo.entries

(* --- cardinality estimates ------------------------------------------- *)

(* The SpGEMM output-nnz estimate must land within 4x of ground truth on
   a uniform-random instance (the Bernoulli union model is exact in
   expectation for uniform inputs; 4x leaves room for variance). *)
let test_estimate_nnz_spgemm () =
  let stats, bt, ct = spgemm_stats 41 in
  let stmt = spgemm_stmt () in
  let est =
    match Cost.estimate_nnz (Cost.env stats) stmt with
    | Some e -> e
    | None -> Alcotest.fail "estimate_nnz returned None for SpGEMM"
  in
  let actual = dense_nnz (Helpers.eval_cin stmt [ (b, bt); (c, ct) ]) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within 4x of actual %.0f" est actual)
    true
    (est >= actual /. 4. && est <= actual *. 4.)

(* Element-wise add: the union estimate, same bound. *)
let test_estimate_nnz_add () =
  let bt = Helpers.random_tensor 53 [| 80; 80 |] 0.1 F.csr in
  let ct = Helpers.random_tensor 54 [| 80; 80 |] 0.1 F.csr in
  let stats = [ ("B", Stats.of_tensor bt); ("C", Stats.of_tensor ct) ] in
  let stmt =
    Schedule.stmt
      (Helpers.get
         (Schedule.of_index_notation
            (I.assign a [ vi; vj ] (I.Add (I.access b [ vi; vj ], I.access c [ vi; vj ])))))
  in
  let est =
    match Cost.estimate_nnz (Cost.env stats) stmt with
    | Some e -> e
    | None -> Alcotest.fail "estimate_nnz returned None for SpAdd"
  in
  let actual = dense_nnz (Helpers.eval_cin stmt [ (b, bt); (c, ct) ]) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within 4x of actual %.0f" est actual)
    true
    (est >= actual /. 4. && est <= actual *. 4.)

(* --- stats collection ------------------------------------------------ *)

let test_stats_of_tensor () =
  let bt = Helpers.random_tensor 61 [| 50; 40 |] 0.2 F.csr in
  let st = Stats.of_tensor bt in
  Alcotest.(check (array int)) "dims recorded" [| 50; 40 |] st.Stats.dims;
  Alcotest.(check int) "nnz recorded" (T.nnz bt) st.Stats.nnz;
  Alcotest.(check bool) "avg fill is stored/rows" true
    (Float.abs (st.Stats.fill.(1) -. (float_of_int (T.nnz bt) /. 50.)) < 1e-9);
  (* bucket is stable across identically-shaped tensors *)
  let bt' = Helpers.random_tensor 62 [| 50; 40 |] 0.2 F.csr in
  Alcotest.(check string) "bucket is shape/log-nnz quantized" (Stats.bucket st)
    (Stats.bucket (Stats.of_tensor bt'))

(* --- parallel advisory ----------------------------------------------- *)

let test_parallel_advisory () =
  (* SpMV with fabricated billion-scale statistics: the chosen plan's
     cost crosses the threshold, i is outermost and indexes the output,
     so the search must attach the advisory. *)
  let y = Helpers.dense_vec_tv "y" in
  let bv = Helpers.csr_tv "B" in
  let x = Helpers.dense_vec_tv "x" in
  let stmt =
    Schedule.stmt
      (Helpers.get
         (Schedule.of_index_notation
            (I.assign y [ vi ] (I.sum vj (I.Mul (I.access bv [ vi; vj ], I.access x [ vj ]))))))
  in
  let huge =
    {
      Stats.dims = [| 200_000; 200_000 |];
      nnz = 2_000_000_000;
      n_positions = [| 200_000; 2_000_000_000 |];
      fill = [| 200_000.; 10_000. |];
      row_hist = [||];
      hist_level = None;
    }
  in
  let plan, _ =
    Helpers.get
      (Autoschedule.search
         ~stats:[ ("B", huge) ]
         ~lowerable:(lowerable ~mode:Lower.Compute) stmt)
  in
  match plan.Autoschedule.p_par with
  | Some v -> Alcotest.(check string) "outermost loop advised" "i" (Var.Index_var.name v)
  | None -> Alcotest.fail "no parallel advisory despite billion-scale stats"

let () =
  Alcotest.run "autoschedule"
    [
      ( "naming",
        [ Alcotest.test_case "workspace names deterministic" `Quick test_ws_names_deterministic ] );
      ( "search",
        [
          Alcotest.test_case "search deterministic" `Quick test_search_deterministic;
          Alcotest.test_case "chosen never costlier" `Quick test_chosen_never_costlier;
          Alcotest.test_case "parallel advisory" `Quick test_parallel_advisory;
        ] );
      ("cache", [ Alcotest.test_case "hit on repeat key" `Quick test_cache_hit ]);
      ( "estimates",
        [
          Alcotest.test_case "spgemm nnz within 4x" `Quick test_estimate_nnz_spgemm;
          Alcotest.test_case "spadd nnz within 4x" `Quick test_estimate_nnz_add;
          Alcotest.test_case "stats collection" `Quick test_stats_of_tensor;
        ] );
    ]
