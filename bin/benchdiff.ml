(* Bench-drift detector (the @bench-drift gate).

   Usage: benchdiff [--tolerance PCT] BASELINE.json NEW.json

   Both files are bench reports in the one record schema bench/main.exe
   writes: {bench, config, records, summary}, each record
   {workload, variant, estimator, time_s, reps, agrees, info}. benchdiff
   pairs the records of the two files by (workload, variant, estimator),
   takes each pair's ratio new/baseline of time_s (lower is better), and
   compares each workload's geometric-mean ratio against the tolerance
   (default 10%).

   Exit status: 0 when every workload's geomean ratio is within
   tolerance, 1 when any workload regressed (each is reported), 2 on
   usage or parse errors, a file without a records array or with a
   malformed record, a record whose agrees is not true, and two files
   with no record in common — input the gate cannot read, or a run
   whose results diverged, never passes. Improvements beyond tolerance
   are reported but do not fail: the gate guards against drift
   backwards, not forwards. *)

open Taco_support.Json

(* ((workload, variant, estimator), time_s) for each record. *)
let records file doc =
  match field doc "records" with
  | Some (List rs) ->
      List.map
        (fun r ->
          let key k = str_field (file ^ ": record") r k in
          let t = num_field (file ^ ": record") r "time_s" in
          if not (t > 0.) then fail "%s: record time_s %g is not positive" file t;
          if field r "agrees" <> Some (Bool true) then
            fail "%s: record %s/%s does not agree with its workload's first variant" file
              (key "workload") (key "variant");
          ((key "workload", key "variant", key "estimator"), t))
        rs
  | _ -> fail "%s: no \"records\" array (not a bench report in the record schema)" file

let geomean rs = exp (List.fold_left (fun acc r -> acc +. log r) 0. rs /. float_of_int (List.length rs))

let () =
  let tolerance = ref 10. in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t >= 0. -> tolerance := t
        | _ ->
            prerr_endline "benchdiff: --tolerance expects a non-negative percentage";
            exit 2);
        parse_args rest
    | f :: rest ->
        files := f :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let base_file, new_file =
    match List.rev !files with
    | [ a; b ] -> (a, b)
    | _ ->
        prerr_endline "usage: benchdiff [--tolerance PCT] BASELINE.json NEW.json";
        exit 2
  in
  let load f =
    match Result.map (records f) (of_file f) with
    | Ok rs -> rs
    | Error msg | (exception Bad msg) ->
        Printf.eprintf "benchdiff: %s\n" msg;
        exit 2
  in
  let base = load base_file in
  let fresh = load new_file in
  (* workload -> ratios of its paired records *)
  let groups : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (((workload, _, _) as key), t_new) ->
      match List.assoc_opt key base with
      | None -> ()
      | Some t_old -> (
          let ratio = t_new /. t_old in
          match Hashtbl.find_opt groups workload with
          | Some c -> c := ratio :: !c
          | None -> Hashtbl.replace groups workload (ref [ ratio ])))
    fresh;
  if Hashtbl.length groups = 0 then begin
    Printf.eprintf "benchdiff: no record in common between %s and %s\n" base_file new_file;
    exit 2
  end;
  let threshold = 1. +. (!tolerance /. 100.) in
  let rows =
    Hashtbl.fold (fun g c acc -> (g, geomean !c, List.length !c) :: acc) groups []
    |> List.sort compare
  in
  let regressed = ref [] in
  List.iter
    (fun (g, gm, n) ->
      let verdict =
        if gm > threshold then begin
          regressed := g :: !regressed;
          "REGRESSED"
        end
        else if gm < 1. /. threshold then "improved"
        else "ok"
      in
      Printf.printf "benchdiff: %-24s geomean %.4fx over %d records  %s\n" g gm n verdict)
    rows;
  if !regressed <> [] then begin
    Printf.eprintf "benchdiff: %d workload(s) regressed beyond %.1f%%: %s\n"
      (List.length !regressed) !tolerance
      (String.concat ", " (List.rev !regressed));
    exit 1
  end
