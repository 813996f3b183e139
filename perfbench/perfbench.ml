(* The repository benchmark: run one seeded workload for a time budget
   and print its metrics.

     perfbench.exe --workload hhvm|clang|fleet --seed N --seconds S
                   --trace 0|1 [--golden FILE] [--spec BENCHMARK.json]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
   either way the last stdout line is the JSON result object.  See
   README.md in this directory for what each metric and workload is. *)

module M = Measure
module Json = Bolt_obs.Json

(* The metrics to print, as declared in BENCHMARK.json: (name, unit) for
   [key] = "end_to_end" or "per_layer".  A workload that never calls a
   layer reports that layer's figures as 0: the layer did no work. *)
let declared path key =
  let spec = Json.of_string (In_channel.with_open_text path In_channel.input_all) in
  match Json.get_list (Json.member key spec) with
  | None -> failwith (path ^ ": no " ^ key ^ " list")
  | Some l ->
      List.map
        (fun m ->
          match (Json.get_string (Json.member "name" m), Json.get_string (Json.member "unit" m)) with
          | Some n, Some u -> (n, u)
          | _ -> failwith (path ^ ": malformed " ^ key ^ " entry"))
        l

let usage () =
  prerr_endline
    "usage: perfbench --workload hhvm|clang|fleet --seed N --seconds S --trace 0|1 \
     [--golden FILE] [--spec BENCHMARK.json]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let golden = ref "perfbench/golden.txt" and spec = ref "BENCHMARK.json" in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string v; args rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; args rest
    | "--trace" :: v :: rest -> trace := int_of_string v; args rest
    | "--golden" :: v :: rest -> golden := v; args rest
    | "--spec" :: v :: rest -> spec := v; args rest
    | [] -> ()
    | _ -> usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !trace <> 0 && !trace <> 1 then usage ();
  let traced = !trace = 1 in
  let s = M.sheet () in
  let golden = Golden.load !golden in
  let attempted, failed =
    match !workload with
    | "hhvm" -> Optflow.run Optflow.Hhvm ~seed:!seed ~seconds:!seconds ~traced ~golden s
    | "clang" -> Optflow.run Optflow.Clang ~seed:!seed ~seconds:!seconds ~traced ~golden s
    | "fleet" -> Fleetflow.run ~seed:!seed ~seconds:!seconds ~traced s
    | _ -> usage ()
  in
  (* a failed correctness or determinism check fails every op *)
  let failed = if s.M.failures = [] then failed else attempted in
  M.put s "ok_ops_pct" "%"
    (100.0 *. M.ratio (float_of_int (attempted - failed)) (float_of_int attempted));
  M.put s "peak_rss_mb" "MB" (M.peak_rss_mb ());
  let names = declared !spec (if traced then "per_layer" else "end_to_end") in
  List.iter
    (fun (n, u) ->
      match List.find_opt (fun (m, _, _) -> m = n) s.M.metrics with
      | Some (_, _, u') ->
          if u <> u' then failwith (Printf.sprintf "%s: unit %s, declared %s" n u' u)
      | None -> M.put s n u 0.0)
    names;
  M.emit s ~names:(List.map fst names) ~attempted ~failed
