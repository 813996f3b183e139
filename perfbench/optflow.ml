(* The optimizer workloads, [hhvm] and [clang]: sources to an optimized
   binary through every layer of the tool flow, then an evaluation of
   the input and optimized binaries on the simulator.

   hhvm:  minicc (LTO) -> sampled bsim run -> perf2bolt -> obolt, the
          data-center flow of Figure 5.
   clang: PGO training run -> minicc (PGO+LTO) -> sampled bsim run on one
          token input -> perf2bolt -> obolt, evaluated on a held-out token
          input: BOLT on top of PGO+LTO, the Figure 7 case.

   Between stages the artifacts go through the same byte round trips the
   CLIs make (BELF encode/decode, fdata emit/parse). *)

module Machine = Bolt_sim.Machine
module Driver = Bolt_minic.Driver
module Objfile = Bolt_obj.Objfile
module Fdata = Bolt_profile.Fdata
module P = Bolt_pipeline.Pipeline
module Bolt = Bolt_core.Bolt
module Opts = Bolt_core.Opts
module Gen = Bolt_workloads.Gen
module W = Bolt_workloads.Workloads
module Obs = Bolt_obs.Obs
module Trace = Bolt_obs.Trace
module M = Measure

type kind = Hhvm | Clang

let fuel = 2_000_000_000

(* hhvm main-loop iterations: large enough for a stable profile, small
   enough that one run repeats the flow several times. *)
let hhvm_iterations = 600

(* Both workloads build with LTO, as the paper's Figures 5 and 7 do. *)
let lto_cc = { Driver.default_options with lto = true }

type inputs = {
  kind : kind;
  w : Gen.t;
  train : int array; (* clang: the PGO training input *)
  profile_input : int array; (* the sampled profiling run *)
  eval_input : int array; (* the evaluation runs (held out for clang) *)
}

(* The seed sets the traffic, not the program: hhvm is the fixed
   [hhvm_like] service whose request stream (the LCG its main loop
   dispatches on) starts from a seeded value; clang is the fixed
   [clang_like] compiler fed seeded token streams. *)
let with_traffic_seed (w : Gen.t) ~seed =
  let rng = Bolt_workloads.Rng.create (7_919 * seed) in
  let lcg = 1 + Bolt_workloads.Rng.int rng 1_000_000 in
  let found = ref false in
  let reseed src =
    String.split_on_char '\n' src
    |> List.map (fun line ->
           if String.starts_with ~prefix:"global lcg = " line then begin
             found := true;
             Printf.sprintf "global lcg = %d;" lcg
           end
           else line)
    |> String.concat "\n"
  in
  let sources = List.map (fun (m, src) -> (m, reseed src)) w.Gen.sources in
  if not !found then failwith "hhvm_like: no request-stream seed in the generated main";
  { w with Gen.sources }

let generate kind ~seed =
  match kind with
  | Hhvm ->
      let w = Gen.gen { W.hhvm_like with Gen.iterations = hhvm_iterations } in
      let w = with_traffic_seed w ~seed in
      {
        kind;
        w;
        train = [||];
        profile_input = w.Gen.input;
        eval_input = w.Gen.input;
      }
  | Clang ->
      let w = Gen.gen W.clang_like in
      let tok k ~n ~mix = W.token_input ~seed:((seed * 100) + k) ~n ~mix in
      {
        kind;
        w;
        train = tok 1 ~n:1_500 ~mix:50;
        profile_input = tok 2 ~n:1_000 ~mix:60;
        eval_input = tok 3 ~n:2_000 ~mix:40;
      }

let source_bytes inp =
  List.fold_left (fun a (_, s) -> a + String.length s) 0 inp.w.Gen.sources

let compile inp cc =
  (Driver.compile ~options:cc ~externals:inp.w.Gen.externals
     ~extra_objs:inp.w.Gen.extra_objs inp.w.Gen.sources)
    .Driver.exe

(* ---- one pass of the flow ---- *)

(* What later checks need from a pass; only the first pass's is kept. *)
type artifacts = {
  input_exe : Objfile.t; (* the binary obolt rewrote, as bsim loads it *)
  output_exe : Objfile.t; (* the optimized binary, as bsim loads it *)
  output_bytes : string;
  profile : Fdata.t; (* the profile obolt consumed *)
  report : Bolt.report;
}

type pass = {
  times : (string * float) list; (* stage timings of this pass *)
  out_digest : Digest.t; (* of the optimized binary's bytes *)
  parts : (string * float) list option; (* obolt's span breakdown, traced *)
}

(* ---- per-layer figures from obolt's own spans ---- *)

let named_passes =
  [
    "verify"; "build-cfg"; "match-profile"; "icf"; "icf-2"; "reorder-bbs";
    "split-functions"; "reorder-functions"; "rewrite";
  ]

(* Top-level spans of one traced [Bolt.optimize] call, summed by name. *)
let pass_times (obs : Obs.t) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (depth, (s : Trace.span)) ->
      if depth = 1 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.Trace.sp_name) in
        Hashtbl.replace tbl s.Trace.sp_name (prev +. s.Trace.sp_dur))
    (Trace.flatten obs.Obs.trace);
  tbl

(* core.pass.<name>_s for the listed passes, core.pass.other_s for every
   other top-level span, core.untraced_s for the call minus its spans. *)
let core_breakdown obs ~bolt_s =
  let tbl = pass_times obs in
  let get n = Option.value ~default:0.0 (Hashtbl.find_opt tbl n) in
  let total = Hashtbl.fold (fun _ v a -> a +. v) tbl 0.0 in
  let named = List.map (fun n -> ("core.pass." ^ n ^ "_s", get n)) named_passes in
  let named_sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 named in
  named @ [ ("core.pass.other_s", total -. named_sum); ("core.untraced_s", bolt_s -. total) ]


let optimize ?obs ~jobs exe prof =
  Bolt.optimize ~opts:{ Opts.default with Opts.jobs } ?obs exe prof

let flow ~traced inp : artifacts * pass =
  let t_start = M.now () in
  let cc, train_s =
    match inp.kind with
    | Hhvm -> (lto_cc, 0.0)
    | Clang ->
        let edges, s =
          M.timed (fun () ->
              P.pgo_profile ~externals:inp.w.Gen.externals
                ~extra_objs:inp.w.Gen.extra_objs ~cc:lto_cc inp.w.Gen.sources
                ~input:inp.train)
        in
        ({ lto_cc with Driver.pgo = Driver.Apply edges }, s)
  in
  let built, compile_s = M.timed (fun () -> compile inp cc) in
  (* minicc writes the binary, bsim loads it *)
  let belf, enc1 = M.timed (fun () -> Objfile.to_string built) in
  let exe, dec1 = M.timed (fun () -> Objfile.of_string belf) in
  let sampled, profile_s =
    M.timed (fun () ->
        Machine.run ~fuel ~sampling:P.default_sampling exe ~input:inp.profile_input)
  in
  let raw =
    match sampled.Machine.profile with
    | Some raw -> raw
    | None -> failwith "sampled run returned no profile"
  in
  let fd, convert_s = M.timed (fun () -> Bolt_profile.Perf2bolt.convert exe raw) in
  (* perf2bolt writes the fdata, obolt reads it *)
  let text, emit_s = M.timed (fun () -> Fdata.to_string fd) in
  let (prof, _), parse_s = M.timed (fun () -> Fdata.parse text) in
  let obs = if traced then Some (Obs.create ~name:"perfbench" ()) else None in
  let alloc0 = Gc.allocated_bytes () in
  let (out, report), bolt_s = M.timed (fun () -> optimize ?obs ~jobs:1 exe prof) in
  let alloc_b = Gc.allocated_bytes () -. alloc0 in
  (* obolt writes the optimized binary, bsim loads it *)
  let out_bytes, enc2 = M.timed (fun () -> Objfile.to_string out) in
  let out_exe, dec2 = M.timed (fun () -> Objfile.of_string out_bytes) in
  let flow_s = M.now () -. t_start in
  let fdata_lines = float_of_int (M.count_lines text) in
  let mb n = float_of_int n /. 1e6 in
  let belf_mb = mb (String.length belf + String.length out_bytes) in
  ( { input_exe = exe; output_exe = out_exe; output_bytes = out_bytes; profile = prof; report },
    {
      times =
        [
          ("flow_wall_s", flow_s);
          ("bolt_wall_s", bolt_s);
          ("pgo_train_s", train_s);
          ("compile_s", compile_s);
          ("profile_run_s", profile_s);
          ("convert_s", convert_s);
          ("alloc_mb", alloc_b /. 1e6);
          ("encode_mb_per_s", M.ratio belf_mb (enc1 +. enc2));
          ("decode_mb_per_s", M.ratio belf_mb (dec1 +. dec2));
          ("belf_mb", mb (String.length belf));
          ("fdata_emit_lines_per_s", M.ratio fdata_lines emit_s);
          ("fdata_parse_lines_per_s", M.ratio fdata_lines parse_s);
          ("fdata_lines", fdata_lines);
          ("source_kb_per_s", M.ratio (float_of_int (source_bytes inp) /. 1024.0) compile_s);
          ( "sampled_minsns_per_s",
            M.ratio (float_of_int sampled.Machine.counters.Machine.instructions /. 1e6) profile_s
          );
        ];
      out_digest = Digest.string out_bytes;
      parts = Option.map (fun obs -> core_breakdown obs ~bolt_s) obs;
    } )

(* ---- the workload ---- *)

let digest_output (o : Machine.outcome) =
  Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int o.Machine.output)))

let name = function Hhvm -> "hhvm" | Clang -> "clang"

let run kind ~seed ~seconds ~traced ~golden (s : M.sheet) =
  (* set-up, three times: generate the inputs from the seed, then build
     the input binary once (warms the heap and code paths the flow uses) *)
  let setups =
    List.init 3 (fun _ ->
        snd (M.timed (fun () ->
                 let inp = generate kind ~seed in
                 ignore (compile inp lto_cc))))
  in
  let inp = generate kind ~seed in
  M.put s "setup_s" "s" (M.median setups);
  (* timed: whole passes of the flow until the time budget is spent;
     a traced run alternates untraced and traced passes *)
  let reps = ref [] and kept = ref None in
  let t0 = M.now () in
  while !reps = [] || M.now () -. t0 < seconds || (traced && List.length !reps < 2) do
    (* every pass starts from the same compacted heap *)
    Gc.compact ();
    let a, p = flow ~traced:(traced && List.length !reps mod 2 = 1) inp in
    if !kept = None then kept := Some a;
    reps := p :: !reps
  done;
  let reps = List.rev !reps in
  let first = Option.get !kept in
  let all_of key rs = List.map (fun r -> List.assoc key r.times) rs in
  let med key rs = M.median (all_of key rs) in
  M.note s "%s: seed %d, %d passes of the flow in %.1fs" (name kind) seed
    (List.length reps) (M.now () -. t0);
  M.note s "  per pass: flow %s s, obolt %s s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") (all_of "flow_wall_s" reps)))
    (String.concat " " (List.map (Printf.sprintf "%.3f") (all_of "bolt_wall_s" reps)));
  (* determinism across passes *)
  M.check s "obolt output identical on every pass"
    (List.for_all (fun r -> r.out_digest = (List.hd reps).out_digest) reps);
  (* -j2 must give the same bytes as -j1 *)
  let (out2, _), j2_s =
    M.timed (fun () -> optimize ~jobs:2 first.input_exe first.profile)
  in
  M.check s "obolt -j1 and -j2 outputs identical" (Objfile.to_string out2 = first.output_bytes);
  (* evaluation: the input and the optimized binary on the evaluation input *)
  let base, base_run_s = M.timed (fun () -> Machine.run ~fuel first.input_exe ~input:inp.eval_input) in
  let opt, opt_run_s = M.timed (fun () -> Machine.run ~fuel first.output_exe ~input:inp.eval_input) in
  M.check s "optimized binary behaves like the input binary" (P.same_behaviour base opt);
  let digest = digest_output base in
  (match Golden.find golden ~workload:(name kind) ~seed with
  | Some pinned ->
      M.check s "input binary output tape matches the pinned digest" (pinned = digest);
      M.note s "golden: %s seed %d tape %s (pinned)" (name kind) seed digest
  | None -> M.note s "golden: %s seed %d tape %s (not pinned)" (name kind) seed digest);
  let d = P.deltas ~baseline:base ~optimized:opt in
  let r = first.report in
  let funcs = r.Bolt.r_funcs and quarantined = List.length r.Bolt.r_quarantined in
  let untraced = List.filter (fun r -> r.parts = None) reps in
  let traced_reps = List.filter (fun r -> r.parts <> None) reps in
  (* end-to-end *)
  M.put s "flow_wall_s" "s" (med "flow_wall_s" untraced);
  M.put s "stage_wall_s" "s" (med "bolt_wall_s" untraced);
  M.put s "output_gain_pct" "%" (P.speedup ~baseline:base ~optimized:opt);
  M.show s "bolt_wall_s" "s" (med "bolt_wall_s" untraced);
  M.show s "speedup_pct" "%" (P.speedup ~baseline:base ~optimized:opt);
  M.show s "taken_branches_reduction_pct" "%" d.P.d_taken_branches;
  M.show s "l1i_miss_reduction_pct" "%" d.P.d_l1i_miss;
  M.show s "itlb_miss_reduction_pct" "%" d.P.d_itlb_miss;
  M.show s "hot_text_bytes" "bytes" (float_of_int r.Bolt.r_hot_size);
  (* per layer: core *)
  let lay = traced_reps in
  let lmed key = if lay = [] then 0.0 else med key lay in
  let core_s = lmed "bolt_wall_s" in
  M.put s "core.optimize_s" "s" core_s;
  M.put s "core.optimize_j2_s" "s" j2_s;
  M.put s "core.j2_speedup" "x" (M.ratio core_s j2_s);
  let breakdown =
    (* per-name medians over the traced passes *)
    match lay with
    | [] ->
        List.map (fun n -> ("core.pass." ^ n ^ "_s", 0.0)) named_passes
        @ [ ("core.pass.other_s", 0.0); ("core.untraced_s", 0.0) ]
    | _ ->
        let per = List.filter_map (fun r -> r.parts) lay in
        List.map
          (fun (k, _) -> (k, M.median (List.map (List.assoc k) per)))
          (List.hd per)
  in
  List.iter (fun (k, v) -> M.put s k "s" v) breakdown;
  (* the spans and the unspanned rest must add up to each traced call *)
  List.iter
    (fun rp ->
      let parts = Option.get rp.parts in
      let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 parts in
      let call = List.assoc "bolt_wall_s" rp.times in
      M.check s "core.pass.* + core.untraced_s = core.optimize_s"
        (Float.abs (sum -. call) <= 1e-6 *. Float.max 1.0 call
         && List.assoc "core.untraced_s" parts >= -1e-3))
    lay;
  M.put s "core.alloc_mb" "MB" (lmed "alloc_mb");
  M.put s "core.funcs" "count" (float_of_int funcs);
  M.put s "core.simple_ratio" "ratio" (M.ratio (float_of_int r.Bolt.r_simple) (float_of_int funcs));
  M.put s "core.icf_folded" "count" (float_of_int r.Bolt.r_icf_folded);
  M.put s "core.icf_fold_ratio" "ratio"
    (M.ratio (float_of_int r.Bolt.r_icf_folded) (float_of_int r.Bolt.r_simple));
  M.put s "core.profile_match_ratio" "ratio"
    (let m = float_of_int r.Bolt.r_profile_branches_matched in
     M.ratio m (m +. float_of_int r.Bolt.r_profile_branches_unmatched));
  M.put s "core.quarantined" "count" (float_of_int quarantined);
  M.put s "core.hot_text_bytes" "bytes" (float_of_int r.Bolt.r_hot_size);
  (* layout *)
  let totals rows = Bolt_core.Layout_bbs.snapshot_totals rows in
  let before = totals r.Bolt.r_layout_before and after = totals r.Bolt.r_layout_after in
  M.put s "layout.exttsp_before" "score" before.Bolt_layout.Evaluator.ev_score;
  M.put s "layout.exttsp_after" "score" after.Bolt_layout.Evaluator.ev_score;
  M.put s "layout.hot_icache_lines_after" "count"
    (float_of_int after.Bolt_layout.Evaluator.ev_icache_lines);
  (* sim *)
  let insns (o : Machine.outcome) = float_of_int o.Machine.counters.Machine.instructions in
  let eval_rate = M.ratio ((insns base +. insns opt) /. 1e6) (base_run_s +. opt_run_s) in
  M.put s "sim.sampled_minsns_per_s" "Minsn/s" (lmed "sampled_minsns_per_s");
  M.put s "sim.eval_minsns_per_s" "Minsn/s" eval_rate;
  M.put s "sim.profile_run_s" "s" (lmed "profile_run_s");
  M.put s "sim.sampling_overhead_ratio" "x" (M.ratio eval_rate (lmed "sampled_minsns_per_s"));
  M.put s "sim.taken_branches_reduction_pct" "%" d.P.d_taken_branches;
  M.put s "sim.l1i_miss_reduction_pct" "%" d.P.d_l1i_miss;
  M.put s "sim.itlb_miss_reduction_pct" "%" d.P.d_itlb_miss;
  (* minic *)
  M.put s "minic.compile_s" "s" (lmed "compile_s");
  M.put s "minic.pgo_train_s" "s" (lmed "pgo_train_s");
  M.put s "minic.source_kb_per_s" "KB/s" (lmed "source_kb_per_s");
  (* obj and profile *)
  M.put s "obj.encode_mb_per_s" "MB/s" (lmed "encode_mb_per_s");
  M.put s "obj.decode_mb_per_s" "MB/s" (lmed "decode_mb_per_s");
  M.put s "obj.belf_mb" "MB" (lmed "belf_mb");
  M.put s "profile.convert_s" "s" (lmed "convert_s");
  M.put s "profile.fdata_emit_lines_per_s" "1/s" (lmed "fdata_emit_lines_per_s");
  M.put s "profile.fdata_parse_lines_per_s" "1/s" (lmed "fdata_parse_lines_per_s");
  M.put s "profile.fdata_lines" "count" (lmed "fdata_lines");
  (* tracing overhead: traced minus untraced obolt call *)
  if traced then
    M.put s "trace.stage_overhead_s" "s" (core_s -. med "bolt_wall_s" untraced);
  (funcs, quarantined)
