(* ICF: the interned-shape fold loop against its string-key oracle, the
   round cap, and the [Context] metadata indexes the hot passes read.

   Parity is checked where the pipeline runs ICF: both [icf] and [icf-2]
   are swapped for the oracle in an otherwise unchanged pipeline, and
   every invocation must fold the same functions into the same
   survivors, save the same bytes, touch the same functions and leave
   the same exec counts — and the rewritten binary must be byte-for-byte
   the one [Bolt.optimize] emits. *)

module P = Bolt_pipeline.Pipeline
module Passman = Bolt_core.Passman
module Context = Bolt_core.Context
module Opts = Bolt_core.Opts
module Bfunc = Bolt_core.Bfunc
module Icf = Bolt_core.Icf
module Gen = Bolt_workloads.Gen
module W = Bolt_workloads.Workloads
module Types = Bolt_obj.Types
module Objfile = Bolt_obj.Objfile

(* ---- parity with the oracle ---- *)

(* What one ICF invocation decided. *)
type step = {
  pass : string;
  folded : int;
  bytes_saved : int;
  funcs : (string * string option * int) list;
      (* every function in address order: fold target, exec count *)
  touched : string list;
}

let step ctx pass (folded, bytes_saved) =
  {
    pass;
    folded;
    bytes_saved;
    funcs =
      List.map
        (fun fb -> (fb.Bfunc.fb_name, fb.Bfunc.folded_into, fb.Bfunc.exec_count))
        (Context.all_funcs ctx);
    touched =
      Hashtbl.fold (fun k () acc -> k :: acc) ctx.Context.touched []
      |> List.sort compare;
  }

let new_icf ctx =
  let r = Icf.run ctx in
  (r.Icf.folded, r.Icf.bytes_saved)

(* [Bolt.optimize]'s pipeline with both ICF passes running [icf]: the
   per-invocation steps and the rewritten binary's bytes. *)
let run_pipeline ~icf ~opts exe prof =
  let ctx = Context.create ~opts exe in
  let env = Passman.make_env ctx prof in
  let steps = ref [] in
  let table1 =
    List.map
      (fun (p : Passman.pass) ->
        if p.p_name = "icf" || p.p_name = "icf-2" then
          Passman.wp p.p_name p.p_enabled (fun env _ ->
              steps := step env.Passman.ctx p.p_name (icf env.Passman.ctx) :: !steps)
        else p)
      Passman.table1
  in
  Passman.run env Passman.pre_passes;
  Passman.run env table1;
  let rw, _ = Bolt_core.Rewrite.run_protected ctx in
  (List.rev !steps, Objfile.to_string rw.Bolt_core.Rewrite.out)

let show_fn (n, into, count) =
  Printf.sprintf "%s->%s@%d" n (Option.value ~default:"-" into) count

let check_steps what (expect : step list) (got : step list) =
  Alcotest.(check (list string)) (what ^ ": passes")
    (List.map (fun s -> s.pass) expect) (List.map (fun s -> s.pass) got);
  List.iter2
    (fun e g ->
      let what = what ^ " " ^ e.pass in
      Alcotest.(check int) (what ^ ": folded") e.folded g.folded;
      Alcotest.(check int) (what ^ ": bytes saved") e.bytes_saved g.bytes_saved;
      Alcotest.(check (list string)) (what ^ ": fold map")
        (List.map show_fn e.funcs) (List.map show_fn g.funcs);
      Alcotest.(check (list string)) (what ^ ": touched") e.touched g.touched)
    expect got

let gen_build ?(cc = Bolt_minic.Driver.default_options) ?input params =
  let w = Gen.gen params in
  let r =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.Gen.externals
      ~extra_objs:w.Gen.extra_objs w.Gen.sources
  in
  let build = { P.exe = r.Bolt_minic.Driver.exe; cc } in
  let input = match input with Some i -> i | None -> w.Gen.input in
  let prof, _ = P.profile build ~input in
  (build.P.exe, prof)

(* Small generated workloads with duplicate families, by seed. *)
let small_workloads =
  [
    ( "hhvm_like",
      fun seed ->
        gen_build
          { W.hhvm_like with Gen.seed; funcs = 300; modules = 6; iterations = 1_000 } );
    ( "multifeed2",
      fun seed ->
        gen_build
          { W.multifeed2 with Gen.seed; funcs = 250; modules = 5; iterations = 1_000 } );
    ( "clang_like",
      fun seed ->
        gen_build
          ~input:(W.token_input ~seed ~n:1_000 ~mix:60)
          { W.clang_like with Gen.seed; funcs = 300; modules = 6 } );
  ]

let test_parity (name, build) () =
  let total = ref 0 in
  List.iter
    (fun seed ->
      let exe, prof = build seed in
      let what = Printf.sprintf "%s seed %d" name seed in
      let expect, expect_bytes = run_pipeline ~icf:Icf_oracle.run ~opts:Opts.default exe prof in
      let got, got_bytes = run_pipeline ~icf:new_icf ~opts:Opts.default exe prof in
      check_steps what expect got;
      Alcotest.(check bool) (what ^ ": same bytes") true (expect_bytes = got_bytes);
      List.iter (fun s -> total := !total + s.folded) got)
    [ 1; 2; 3 ];
  (* the workloads carry duplicate families: parity is not vacuous *)
  Alcotest.(check bool) (name ^ ": something folded") true (!total > 0)

(* Full-size: [Bolt.optimize] itself against the oracle pipeline. *)
let test_optimize_bytes () =
  let opts = { Opts.default with Opts.jobs = 1 } in
  List.iter
    (fun seed ->
      let exe, prof =
        gen_build
          ~cc:{ Bolt_minic.Driver.default_options with lto = true }
          { W.hhvm_like with Gen.seed; iterations = 600 }
      in
      let out, report = Bolt_core.Bolt.optimize ~opts exe prof in
      let steps, oracle_bytes = run_pipeline ~icf:Icf_oracle.run ~opts exe prof in
      let what = Printf.sprintf "hhvm_like seed %d" seed in
      Alcotest.(check int) (what ^ ": folded")
        (List.fold_left (fun a s -> a + s.folded) 0 steps)
        report.Bolt_core.Bolt.r_icf_folded;
      Alcotest.(check bool) (what ^ ": identical bytes") true
        (Objfile.to_string out = oracle_bytes))
    [ 1; 2 ]

(* ---- the round cap ---- *)

(* Six layers of twins, leaves at the bottom, callers listed first:
   round k folds the k-th layer from the bottom, so the cap stops a
   fixpoint that is still folding.  The cut is diagnosed, and the oracle cuts in the same
   place. *)
let test_round_cap () =
  let open Test_bolt_core in
  let chain () =
    List.concat
      (List.init 6 (fun d ->
           let name s = Printf.sprintf "l%d%s" (5 - d) s in
           if d = 5 then [ leaf (name "x") 3; leaf (name "y") 3 ]
           else
             let callee s = Printf.sprintf "l%d%s" (4 - d) s in
             [ caller (name "x") (callee "x"); caller (name "y") (callee "y") ]))
  in
  let ctx = synth_ctx (chain ()) in
  let r = Icf.run ctx in
  Alcotest.(check int) "five layers folded" 5 r.Icf.folded;
  Alcotest.(check int) "cap reached" Icf.max_rounds r.Icf.rounds;
  Alcotest.(check int) "shapes: one leaf, one caller" 2 r.Icf.shapes;
  Alcotest.(check (option string)) "top layer not reached" None (folded_into ctx "l5y");
  let warned =
    List.exists
      (fun (d : Bolt_core.Diag.record) ->
        d.Bolt_core.Diag.d_stage = "icf" && d.Bolt_core.Diag.d_severity = Bolt_core.Diag.Warning)
      (Bolt_core.Diag.records ctx.Context.diag)
  in
  Alcotest.(check bool) "cut diagnosed" true warned;
  let octx = synth_ctx (chain ()) in
  Alcotest.(check (pair int int)) "oracle agrees" (r.Icf.folded, r.Icf.bytes_saved)
    (Icf_oracle.run octx);
  (* a fixpoint that converges inside the cap is not diagnosed *)
  let ctx = synth_ctx [ leaf "a" 1; leaf "b" 1 ] in
  ignore (Icf.run ctx);
  Alcotest.(check int) "no warning when converged" 0
    (Bolt_core.Diag.count ctx.Context.diag Bolt_core.Diag.Warning)

(* ---- Context: section reads and metadata indexes ---- *)

let rodata_at = 0x10_000

let synth_exe ?(fdes = []) ?(dbgs = []) ?(lsdas = []) rodata =
  let sec name kind addr data =
    { Types.sec_name = name; sec_kind = kind; sec_addr = addr; sec_data = data;
      sec_size = Bytes.length data }
  in
  {
    Objfile.kind = Objfile.Executable;
    entry = 0x1000;
    build_id = "";
    sections =
      [ sec ".text" Types.Text 0x1000 (Bytes.make 16 '\x01');
        sec ".rodata" Types.Rodata rodata_at rodata ];
    symbols = [];
    relocs = [];
    fdes;
    lsdas;
    dbgs;
    fingerprints = [];
  }

let test_section_value () =
  let data = Bytes.make 24 '\x00' in
  Bytes.set_int64_le data 0 (-5L);
  Bytes.set_int64_le data 16 0x1234_5678_9abcL;
  let ctx = Context.create ~opts:Opts.default (synth_exe data) in
  let read a = Context.section_value ctx ctx.Context.rodata a in
  Alcotest.(check (option int)) "negative cell" (Some (-5)) (read rodata_at);
  Alcotest.(check (option int)) "cell ending at the section end" (Some 0x1234_5678_9abc)
    (read (rodata_at + 16));
  Alcotest.(check (option int)) "one byte past the end" None (read (rodata_at + 17));
  Alcotest.(check (option int)) "before the section" None (read (rodata_at - 1));
  Alcotest.(check (option int)) "no section" None (Context.section_value ctx None rodata_at)

let test_metadata_first_record () =
  let fde n a = { Types.fde_func = n; fde_addr = a; fde_size = 8; fde_cfi = [] } in
  let dbg n a = { Types.dbg_func = n; dbg_addr = a; dbg_entries = [] } in
  let lsda n a = { Types.lsda_func = n; lsda_fn_addr = a; lsda_entries = [] } in
  let exe =
    synth_exe (Bytes.make 8 '\x00')
      ~fdes:[ fde "f" 1; fde "g" 2; fde "f" 3 ]
      ~dbgs:[ dbg "g" 4; dbg "f" 5; dbg "f" 6 ]
      ~lsdas:[ lsda "f" 7; lsda "f" 8; lsda "h" 9 ]
  in
  let ctx = Context.create ~opts:Opts.default exe in
  let same what a b = Alcotest.(check bool) what true (a = b) in
  List.iter
    (fun n ->
      same ("fde " ^ n) (Objfile.fde_for exe n) (Context.fde_for ctx n);
      same ("dbg " ^ n) (Objfile.dbg_for exe n) (Context.dbg_for ctx n);
      same ("lsda " ^ n) (Objfile.lsda_for exe n) (Context.lsda_for ctx n))
    [ "f"; "g"; "h"; "missing" ];
  Alcotest.(check (option int)) "first fde wins" (Some 1)
    (Option.map (fun f -> f.Types.fde_addr) (Context.fde_for ctx "f"));
  Alcotest.(check (option int)) "first dbg wins" (Some 5)
    (Option.map (fun d -> d.Types.dbg_addr) (Context.dbg_for ctx "f"));
  Alcotest.(check (option int)) "first lsda wins" (Some 7)
    (Option.map (fun l -> l.Types.lsda_fn_addr) (Context.lsda_for ctx "f"))

let suite =
  List.map
    (fun ((name, _) as w) -> Alcotest.test_case ("parity " ^ name) `Quick (test_parity w))
    small_workloads
  @ [
    Alcotest.test_case "optimize bytes hhvm_like" `Slow test_optimize_bytes;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "section value" `Quick test_section_value;
    Alcotest.test_case "metadata first record" `Quick test_metadata_first_record;
    ]
