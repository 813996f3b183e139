(* Assembler and linker unit tests: relaxation, relocations, PLT/GOT
   synthesis, linker ICF, function ordering, jump-table data resolution,
   32-bit field overflow, and byte parity of the linker with the
   pre-index linker in [Link_oracle] on workload builds and on
   hand-built objects. *)

open Bolt_isa
open Bolt_asm.Asm
open Bolt_obj

let mk_func ?(global = true) ?(fde = true) name body =
  { af_name = name; af_global = global; af_align = 16; af_emit_fde = fde; af_body = body }

let link ?(options = Bolt_linker.Linker.default_options) objs =
  (* tests link arbitrary function sets; use the first function as entry *)
  let entry =
    List.concat_map (fun (o : Objfile.t) -> o.Objfile.symbols) objs
    |> List.find_map (fun (s : Types.symbol) ->
           if s.sym_kind = Types.Func && s.sym_name = "main" then Some "main" else None)
    |> Option.value
         ~default:
           (match
              List.concat_map (fun (o : Objfile.t) -> o.Objfile.symbols) objs
              |> List.find_opt (fun (s : Types.symbol) -> s.sym_kind = Types.Func)
            with
           | Some s -> s.sym_name
           | None -> "main")
  in
  Bolt_linker.Linker.link ~options:{ options with entry } objs

let test_relaxation_short () =
  (* a short forward branch stays 2 bytes *)
  let f =
    mk_func "f"
      [
        A_insn (Insn.Jmp (Insn.Sym ("l", 0), Insn.W8));
        A_insn (Insn.Nop 4);
        A_label "l";
        A_insn Insn.Ret;
      ]
  in
  let out = assemble_function ~base:0 f in
  Alcotest.(check int) "total size" (2 + 4 + 1) out.fo_size;
  let i, sz = Codec.decode out.fo_bytes 0 in
  Alcotest.(check int) "short jmp" 2 sz;
  match i with
  | Insn.Jmp (Insn.Imm 4, Insn.W8) -> ()
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i)

let test_relaxation_widens () =
  (* a branch over >127 bytes must widen to 5 bytes *)
  let nops = List.init 20 (fun _ -> A_insn (Insn.Nop 15)) in
  let f =
    mk_func "f"
      ((A_insn (Insn.Jmp (Insn.Sym ("l", 0), Insn.W8)) :: nops)
      @ [ A_label "l"; A_insn Insn.Ret ])
  in
  let out = assemble_function ~base:0 f in
  let i, sz = Codec.decode out.fo_bytes 0 in
  Alcotest.(check int) "widened" 5 sz;
  match i with
  | Insn.Jmp (Insn.Imm 300, Insn.W32) -> ()
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i)

let test_backward_branch () =
  let f =
    mk_func "f"
      [
        A_label "top";
        A_insn (Insn.Alu_ri (Insn.Sub, Reg.r1, Insn.Imm 1));
        A_insn (Insn.Jcc (Cond.Gt, Insn.Sym ("top", 0), Insn.W8));
        A_insn Insn.Ret;
      ]
  in
  let out = assemble_function ~base:0 f in
  let i, _ = Codec.decode out.fo_bytes 6 in
  match i with
  | Insn.Jcc (Cond.Gt, Insn.Imm -8, Insn.W8) -> ()
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i)

let test_cross_function_reloc () =
  let caller = mk_func "caller" [ A_insn (Insn.Call (Insn.Sym ("callee", 0))); A_insn Insn.Ret ] in
  let callee = mk_func "callee" [ A_insn Insn.Ret ] in
  let obj = assemble { empty_unit with u_funcs = [ caller; callee ] } in
  Alcotest.(check int) "one reloc" 1 (List.length obj.Objfile.relocs);
  let exe, _ = link [ obj ] in
  (* the call must land on callee's entry *)
  let text = Objfile.section_exn exe ".text" in
  let csym = Option.get (Objfile.find_symbol exe "caller") in
  let tsym = Option.get (Objfile.find_symbol exe "callee") in
  let i, sz = Codec.decode text.Types.sec_data (csym.sym_value - text.sec_addr) in
  (match i with
  | Insn.Call (Insn.Imm rel) ->
      Alcotest.(check int) "call target" tsym.sym_value (csym.sym_value + sz + rel)
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i))

let test_invisible_local_calls () =
  (* without function sections, intra-unit calls leave NO relocations *)
  let caller = mk_func "c2" [ A_insn (Insn.Call (Insn.Sym ("d2", 0))); A_insn Insn.Ret ] in
  let callee = mk_func "d2" [ A_insn Insn.Ret ] in
  let obj =
    assemble { empty_unit with u_funcs = [ caller; callee ]; u_function_sections = false }
  in
  Alcotest.(check int) "no relocs" 0 (List.length obj.Objfile.relocs);
  Alcotest.(check int) "single text section" 1
    (List.length (List.filter (fun s -> s.Types.sec_kind = Types.Text) obj.Objfile.sections))

let test_plt_and_got () =
  let caller =
    mk_func "main" [ A_insn (Insn.Call (Insn.Sym ("ext$plt", 0))); A_insn Insn.Ret ]
  in
  let ext = mk_func "ext" [ A_insn Insn.Ret ] in
  let o1 = assemble { empty_unit with u_funcs = [ caller ] } in
  let o2 = assemble { empty_unit with u_funcs = [ ext ] } in
  let exe, stats = link [ o1; o2 ] in
  Alcotest.(check int) "one stub" 1 stats.Bolt_linker.Linker.plt_stubs;
  let stub = Option.get (Objfile.find_symbol exe "ext$plt") in
  let got = Option.get (Objfile.find_symbol exe "ext$got") in
  let plt_sec = Objfile.section_exn exe ".plt" in
  let i, _ = Codec.decode plt_sec.sec_data (stub.sym_value - plt_sec.sec_addr) in
  (match i with
  | Insn.Jmp_mem (Insn.Imm slot) -> Alcotest.(check int) "stub slot" got.sym_value slot
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i));
  (* the GOT cell holds ext's address *)
  let got_sec = Objfile.section_exn exe ".got" in
  let r = Buf.reader (Bytes.to_string got_sec.sec_data) in
  r.Buf.pos <- got.sym_value - got_sec.sec_addr;
  let target = Buf.r_i64 r in
  let ext_sym = Option.get (Objfile.find_symbol exe "ext") in
  Alcotest.(check int) "got content" ext_sym.sym_value target

let test_undefined_symbol () =
  let caller = mk_func "main" [ A_insn (Insn.Call (Insn.Sym ("missing", 0))); A_insn Insn.Ret ] in
  let obj = assemble { empty_unit with u_funcs = [ caller ] } in
  match link [ obj ] with
  | _ -> Alcotest.fail "expected Link_error"
  | exception Bolt_linker.Linker.Link_error _ -> ()

let test_duplicate_symbol () =
  let f1 = mk_func "main" [ A_insn Insn.Ret ] in
  let f2 = mk_func "main" [ A_insn Insn.Halt ] in
  let o1 = assemble { empty_unit with u_funcs = [ f1 ] } in
  let o2 = assemble { empty_unit with u_funcs = [ f2 ] } in
  match link [ o1; o2 ] with
  | _ -> Alcotest.fail "expected Link_error"
  | exception Bolt_linker.Linker.Link_error _ -> ()

let test_linker_icf () =
  let body = [ A_insn (Insn.Alu_ri (Insn.Add, Reg.r1, Insn.Imm 3)); A_insn Insn.Ret ] in
  let main = mk_func "main" [ A_insn Insn.Ret ] in
  let f1 = mk_func "twin1" body in
  let f2 = mk_func "twin2" body in
  let f3 = mk_func "other" [ A_insn (Insn.Alu_ri (Insn.Add, Reg.r1, Insn.Imm 4)); A_insn Insn.Ret ] in
  let obj = assemble { empty_unit with u_funcs = [ main; f1; f2; f3 ] } in
  let exe, stats =
    link ~options:{ Bolt_linker.Linker.default_options with icf = true } [ obj ]
  in
  Alcotest.(check int) "one folded" 1 stats.Bolt_linker.Linker.icf_folded;
  let t1 = Option.get (Objfile.find_symbol exe "twin1") in
  let t2 = Option.get (Objfile.find_symbol exe "twin2") in
  Alcotest.(check int) "aliased" t1.sym_value t2.sym_value;
  let o = Option.get (Objfile.find_symbol exe "other") in
  Alcotest.(check bool) "other distinct" true (o.sym_value <> t1.sym_value)

let test_function_order () =
  let mk name = mk_func name [ A_insn Insn.Ret ] in
  let obj = assemble { empty_unit with u_funcs = [ mk "main"; mk "a"; mk "b"; mk "c" ] } in
  let options =
    { Bolt_linker.Linker.default_options with func_order = Some [ "c"; "a" ] }
  in
  let exe, _ = link ~options [ obj ] in
  let addr n = (Option.get (Objfile.find_symbol exe n)).Types.sym_value in
  Alcotest.(check bool) "c first" true (addr "c" < addr "a");
  Alcotest.(check bool) "a before main" true (addr "a" < addr "main");
  Alcotest.(check bool) "main before b" true (addr "main" < addr "b")

let test_jump_table_data_resolution () =
  (* a D_quad referring to a function-internal label becomes fn+offset *)
  let f =
    mk_func "f"
      [ A_insn (Insn.Nop 4); A_label "inner"; A_insn Insn.Ret ]
  in
  let obj =
    assemble
      {
        empty_unit with
        u_funcs = [ f; mk_func "main" [ A_insn Insn.Ret ] ];
        u_rodata = [ D_label ("JT", false); D_quad (Insn.Sym ("inner", 0)) ];
      }
  in
  let r = List.find (fun (r : Types.reloc) -> r.rel_section = ".rodata") obj.Objfile.relocs in
  Alcotest.(check string) "resolved to fn" "f" r.rel_sym;
  Alcotest.(check int) "addend is offset" 4 r.rel_addend;
  let exe, _ = link [ obj ] in
  let ro = Objfile.section_exn exe ".rodata" in
  let rr = Buf.reader (Bytes.to_string ro.sec_data) in
  let v = Buf.r_i64 rr in
  let fsym = Option.get (Objfile.find_symbol exe "f") in
  Alcotest.(check int) "cell holds inner addr" (fsym.sym_value + 4) v

let test_pic_difference_dropped () =
  (* PIC entries resolve at link time and the reloc disappears even with
     emit_relocs *)
  let f = mk_func "f" [ A_insn (Insn.Nop 4); A_label "inner"; A_insn Insn.Ret ] in
  let obj =
    assemble
      {
        empty_unit with
        u_funcs = [ f; mk_func "main" [ A_insn Insn.Ret ] ];
        u_rodata = [ D_label ("JTP", false); D_quad_pic ("inner", 0, "JTP") ];
      }
  in
  let exe, _ =
    link ~options:{ Bolt_linker.Linker.default_options with emit_relocs = true } [ obj ]
  in
  Alcotest.(check int) "pic reloc dropped" 0
    (List.length (List.filter (fun (r : Types.reloc) -> r.rel_section = ".rodata") exe.Objfile.relocs));
  let ro = Objfile.section_exn exe ".rodata" in
  let jt = Option.get (Objfile.find_symbol exe "JTP") in
  let rr = Buf.reader (Bytes.to_string ro.sec_data) in
  rr.Buf.pos <- jt.sym_value - ro.sec_addr;
  let v = Buf.r_i64 rr in
  let fsym = Option.get (Objfile.find_symbol exe "f") in
  Alcotest.(check int) "difference value" (fsym.sym_value + 4 - jt.sym_value) v

let test_lsda_and_dbg_roundtrip () =
  let f =
    mk_func "f"
      [
        A_loc ("x.mc", 10);
        A_insn_lp (Insn.Call (Insn.Sym ("main", 0)), "pad");
        A_loc ("x.mc", 11);
        A_insn Insn.Ret;
        A_label "pad";
        A_insn Insn.Ret;
      ]
  in
  let obj = assemble { empty_unit with u_funcs = [ f; mk_func "main" [ A_insn Insn.Ret ] ] } in
  let l = Option.get (Objfile.lsda_for obj "f") in
  (match l.lsda_entries with
  | [ e ] ->
      Alcotest.(check int) "range start" 0 e.lsda_start;
      Alcotest.(check int) "range len" 5 e.lsda_len;
      Alcotest.(check int) "pad offset" 6 e.lsda_pad
  | _ -> Alcotest.fail "one lsda entry expected");
  let d = Option.get (Objfile.dbg_for obj "f") in
  Alcotest.(check int) "two line entries" 2 (List.length d.dbg_entries)

(* ---- 32-bit fields are range-checked, not wrapped ---- *)

(* One object: [main] (a [lea_rel] with its disp32 field at offset 2,
   then [ret]) and an 8-byte .data section, with [reloc] added to its
   relocations. *)
let obj_with_reloc (reloc : Types.reloc) =
  let main = mk_func "main" [ A_insn (Insn.Lea_rel (Reg.r1, Insn.Imm 0)); A_insn Insn.Ret ] in
  let o = assemble { empty_unit with u_funcs = [ main ] } in
  {
    o with
    Objfile.sections =
      o.Objfile.sections
      @ [ { Types.sec_name = ".data"; sec_kind = Types.Data; sec_addr = 0;
            sec_data = Bytes.make 8 '\x00'; sec_size = 8 } ];
    relocs = o.Objfile.relocs @ [ reloc ];
  }

let expect_overflow what reloc =
  match link [ obj_with_reloc reloc ] with
  | _ -> Alcotest.failf "%s: expected Link_error" what
  | exception Bolt_linker.Linker.Link_error msg ->
      let kind = if reloc.Types.rel_kind = Types.Abs32 then "abs32" else "rel32" in
      Alcotest.(check bool) (what ^ ": " ^ msg) true
        (String.starts_with ~prefix:(kind ^ " overflow") msg)

(* The field writer the linker and the rewriter share: signed range
   boundaries, and nothing written on overflow. *)
let test_reloc_field_range () =
  let check kind v fits =
    let b = Bytes.make 8 '\xaa' in
    let what = Printf.sprintf "%s %d" (Types.reloc_kind_name kind) v in
    Alcotest.(check bool) what fits (Types.write_reloc_field b 0 kind v);
    if not fits then Alcotest.(check string) (what ^ ": untouched") (String.make 8 '\xaa') (Bytes.to_string b)
  in
  List.iter
    (fun kind ->
      check kind 0x7fff_ffff true;
      check kind (-0x8000_0000) true;
      check kind 0x8000_0000 false;
      check kind (-0x8000_0001) false)
    [ Types.Abs32; Types.Rel32 ];
  check Types.Rel8 127 true;
  check Types.Rel8 (-128) true;
  check Types.Rel8 128 false;
  check Types.Abs64 0x1_0000_0000 true;
  let b = Bytes.make 4 '\x00' in
  ignore (Types.write_reloc_field b 0 Types.Rel32 (-2));
  Alcotest.(check string) "little-endian two's complement" "\xfe\xff\xff\xff" (Bytes.to_string b)

let test_abs32_overflow () =
  let r =
    { Types.rel_section = ".data"; rel_offset = 0; rel_kind = Types.Abs32;
      rel_sym = "main"; rel_addend = 0x7fff_0000; rel_end = 0; rel_pic_base = "" }
  in
  expect_overflow "abs32" r;
  (* the same field in range still links *)
  ignore (link [ obj_with_reloc { r with rel_addend = 0x100 } ])

let test_rel32_overflow () =
  (* the lea_rel's disp32 field, measured from the instruction's end *)
  let r =
    { Types.rel_section = ".text.main"; rel_offset = 2; rel_kind = Types.Rel32;
      rel_sym = "main"; rel_addend = 0; rel_end = 4; rel_pic_base = "" }
  in
  expect_overflow "rel32 forward" { r with rel_addend = 0x8000_0100 };
  expect_overflow "rel32 backward" { r with rel_addend = -0x8000_0010 };
  ignore (link [ obj_with_reloc { r with rel_addend = 0x7fff_0000 } ])

(* ---- parity with the pre-index linker ---- *)

module Linker = Bolt_linker.Linker
module Driver = Bolt_minic.Driver
module Gen = Bolt_workloads.Gen

(* Both linkers on the same inputs: the same executable, byte for byte,
   and the same statistics. *)
let check_parity what ~options objs =
  let exe, st = Linker.link ~options objs in
  let exe', st' = Link_oracle.link ~options objs in
  Alcotest.(check bool) (what ^ ": bytes identical to the oracle") true
    (Objfile.to_string exe = Objfile.to_string exe');
  Alcotest.(check (list int)) (what ^ ": stats")
    [ st'.Linker.icf_folded; st'.icf_bytes_saved; st'.plt_stubs ]
    [ st.Linker.icf_folded; st.icf_bytes_saved; st.plt_stubs ]

let link_options (cc : Driver.options) =
  {
    Linker.emit_relocs = cc.Driver.emit_relocs;
    icf = cc.linker_icf;
    func_order = cc.func_order;
    entry = "main";
  }

let lto_link = link_options Builds.lto

(* The driver's own link against the oracle's link of the same objects. *)
let parity_build wname tag cc () =
  let r = Builds.build wname tag cc in
  let exe', _ = Link_oracle.link ~options:(link_options cc) r.Driver.objs in
  Alcotest.(check bool) (wname ^ " " ^ tag ^ ": bytes identical to the oracle") true
    (Objfile.to_string r.Driver.exe = Objfile.to_string exe')

let parity_relink wname tag f () =
  let r = Builds.build wname "lto" Builds.lto in
  let options, objs = f r in
  check_parity (wname ^ " " ^ tag) ~options objs

let func_names (exe : Objfile.t) =
  List.filter_map
    (fun (s : Types.symbol) -> if s.sym_kind = Types.Func then Some s.sym_name else None)
    exe.Objfile.symbols

(* An explicit order: every third function, last first, so the placed
   prefix and the leftover tail both hold many chunks. *)
let reverse_thirds r =
  let names = func_names r.Driver.exe in
  let order = List.rev (List.filteri (fun i _ -> i mod 3 = 0) names) in
  ({ lto_link with func_order = Some order }, r.Driver.objs)

(* The hand-written assembly objects carry no FDE; put them first so
   FDE-less objects come before every compiled one. *)
let extra_first wname r =
  let extras = (Builds.workload wname).Gen.extra_objs in
  Alcotest.(check bool) "extra objects exist and have no FDE" true
    (extras <> [] && List.for_all (fun (o : Objfile.t) -> o.Objfile.fdes = []) extras);
  let compiled = List.filter (fun o -> not (List.memq o extras)) r.Driver.objs in
  (lto_link, extras @ compiled)

let workload_parity_cases wname =
  let case tag f = Alcotest.test_case (Printf.sprintf "parity %s %s" wname tag) `Slow f in
  [
    case "lto" (parity_build wname "lto" Builds.lto);
    case "no-lto" (parity_build wname "no-lto" Driver.default_options);
    case "no-function-sections"
      (parity_build wname "no-function-sections"
         { Driver.default_options with function_sections = false });
    case "linker-icf"
      (parity_relink wname "linker-icf" (fun r ->
           ({ lto_link with icf = true }, r.Driver.objs)));
    case "func-order" (parity_relink wname "func-order" reverse_thirds);
    case "pgo-instrumented"
      (parity_build wname "pgo-instrumented" { Builds.lto with pgo = Driver.Instrument });
    case "extra-objs-first" (parity_relink wname "extra-objs-first" (extra_first wname));
  ]

(* Hand-built objects. *)

let rename_section ~from ~into (o : Objfile.t) =
  let rn n = if n = from then into else n in
  {
    o with
    Objfile.sections =
      List.map (fun (s : Types.section) -> { s with sec_name = rn s.sec_name }) o.Objfile.sections;
    symbols = List.map (fun (s : Types.symbol) -> { s with sym_section = rn s.sym_section }) o.symbols;
    relocs = List.map (fun (r : Types.reloc) -> { r with rel_section = rn r.rel_section }) o.relocs;
  }

(* Alternate the elements of two lists: a1 b1 a2 b2 ... *)
let rec interleave a b =
  match (a, b) with
  | x :: a, y :: b -> x :: y :: interleave a b
  | [], r | r, [] -> r

(* A function with a line table and a landing pad, so it gets an FDE, an
   LSDA and a dbg record. *)
let eh_func name callee =
  mk_func name
    [
      A_loc (name ^ ".mc", 1);
      A_insn_lp (Insn.Call (Insn.Sym (callee, 0)), "pad");
      A_loc (name ^ ".mc", 2);
      A_insn Insn.Ret;
      A_label "pad";
      A_insn Insn.Ret;
    ]

(* One object with two shared text sections whose functions are not in
   name order, and whose FDE, LSDA and line-table records alternate
   between the sections; plus an FDE with no defining symbol. *)
let interleaved_obj () =
  let unit fs = { empty_unit with u_funcs = fs; u_function_sections = false } in
  let hot =
    assemble (unit [ eh_func "zeta" "main"; eh_func "alpha" "mid"; eh_func "kappa" "zeta" ])
    |> rename_section ~from:".text" ~into:".text.hot"
  in
  let cold =
    assemble (unit [ eh_func "mid" "alpha"; mk_func "main" [ A_insn (Insn.Call (Insn.Sym ("kappa", 0))); A_insn Insn.Ret ] ])
    |> rename_section ~from:".text" ~into:".text.cold"
  in
  let orphan = { (List.hd hot.Objfile.fdes) with Types.fde_func = "nobody" } in
  {
    hot with
    Objfile.sections = hot.Objfile.sections @ cold.Objfile.sections;
    symbols = cold.Objfile.symbols @ hot.Objfile.symbols;
    relocs = hot.Objfile.relocs @ cold.Objfile.relocs;
    fdes = orphan :: interleave hot.Objfile.fdes cold.Objfile.fdes;
    lsdas = interleave cold.Objfile.lsdas hot.Objfile.lsdas;
    dbgs = interleave hot.Objfile.dbgs cold.Objfile.dbgs;
  }

let test_interleaved_metadata () =
  let o = interleaved_obj () in
  let exe, _ = link [ o ] in
  let exe', _ = Link_oracle.link ~options:{ Linker.default_options with entry = "main" } [ o ] in
  Alcotest.(check bool) "bytes identical to the oracle" true
    (Objfile.to_string exe = Objfile.to_string exe');
  (* per section, records keep the object's order; sections follow input
     order *)
  Alcotest.(check (list string)) "fde order" [ "zeta"; "alpha"; "kappa"; "mid"; "main" ]
    (List.map (fun (f : Types.fde) -> f.fde_func) exe.Objfile.fdes);
  Alcotest.(check (list string)) "dbg order" [ "zeta"; "alpha"; "kappa"; "mid" ]
    (List.map (fun (d : Types.dbg) -> d.dbg_func) exe.Objfile.dbgs);
  (* the same objects twice over, as separate objects with renamed
     functions, and with linker ICF and an explicit order *)
  let rename_funcs suffix (o : Objfile.t) =
    let rn n = if List.mem n [ "zeta"; "alpha"; "kappa"; "mid"; "main" ] then n ^ suffix else n in
    {
      o with
      Objfile.symbols = List.map (fun (s : Types.symbol) -> { s with sym_name = rn s.sym_name }) o.Objfile.symbols;
      relocs = List.map (fun (r : Types.reloc) -> { r with rel_sym = rn r.rel_sym }) o.relocs;
      fdes = List.map (fun (f : Types.fde) -> { f with fde_func = rn f.fde_func }) o.fdes;
      lsdas = List.map (fun (l : Types.lsda) -> { l with lsda_func = rn l.lsda_func }) o.lsdas;
      dbgs = List.map (fun (d : Types.dbg) -> { d with dbg_func = rn d.dbg_func }) o.dbgs;
    }
  in
  let objs = [ o; rename_funcs "_2" o ] in
  let options = { Linker.default_options with entry = "main"; emit_relocs = true } in
  check_parity "two objects" ~options objs;
  check_parity "two objects, icf" ~options:{ options with icf = true } objs;
  check_parity "two objects, order" ~options:{ options with func_order = Some [ "mid_2"; "kappa" ] } objs

(* Section-symbol relocations: object 0 holds two sections named
   .rodata.t and object 1 a third; each object's .data cell points at
   ".rodata.t", which must resolve within its own object, to the last
   live section of that name. *)
let test_section_symbol_lookup () =
  let data name =
    { Types.sec_name = name; sec_kind = Types.Rodata; sec_addr = 0;
      sec_data = Bytes.make 8 '\x07'; sec_size = 8 }
  in
  let cell =
    { Types.sec_name = ".data"; sec_kind = Types.Data; sec_addr = 0;
      sec_data = Bytes.make 8 '\x00'; sec_size = 8 }
  in
  let reloc =
    { Types.rel_section = ".data"; rel_offset = 0; rel_kind = Types.Abs64;
      rel_sym = ".rodata.t"; rel_addend = 0; rel_end = 0; rel_pic_base = "" }
  in
  let main = assemble { empty_unit with u_funcs = [ mk_func "main" [ A_insn Insn.Ret ] ] } in
  let o0 =
    { main with Objfile.sections = main.Objfile.sections @ [ data ".rodata.t"; data ".rodata.t"; cell ];
                relocs = main.Objfile.relocs @ [ reloc ] }
  in
  let o1 = { (Objfile.empty Objfile.Object) with Objfile.sections = [ data ".rodata.t"; cell ]; relocs = [ reloc ] } in
  let options = { Linker.default_options with entry = "main"; emit_relocs = true } in
  check_parity "section symbols" ~options [ o0; o1 ];
  let exe, _ = Linker.link ~options [ o0; o1 ] in
  let d = Objfile.section_exn exe ".data" in
  let cell_at off = Int64.to_int (Bytes.get_int64_le d.Types.sec_data off) in
  Alcotest.(check int) "object 0: its last .rodata.t" (Bolt_obj.Layout.rodata_base + 16) (cell_at 0);
  Alcotest.(check int) "object 1: its own .rodata.t" (Bolt_obj.Layout.rodata_base + 32) (cell_at 16)


let suite =
  [
    Alcotest.test_case "relax-short" `Quick test_relaxation_short;
    Alcotest.test_case "relax-widens" `Quick test_relaxation_widens;
    Alcotest.test_case "backward-branch" `Quick test_backward_branch;
    Alcotest.test_case "cross-function-reloc" `Quick test_cross_function_reloc;
    Alcotest.test_case "invisible-local-calls" `Quick test_invisible_local_calls;
    Alcotest.test_case "plt-got" `Quick test_plt_and_got;
    Alcotest.test_case "undefined-symbol" `Quick test_undefined_symbol;
    Alcotest.test_case "duplicate-symbol" `Quick test_duplicate_symbol;
    Alcotest.test_case "linker-icf" `Quick test_linker_icf;
    Alcotest.test_case "function-order" `Quick test_function_order;
    Alcotest.test_case "jt-data-resolution" `Quick test_jump_table_data_resolution;
    Alcotest.test_case "pic-difference-dropped" `Quick test_pic_difference_dropped;
    Alcotest.test_case "lsda-dbg" `Quick test_lsda_and_dbg_roundtrip;
    Alcotest.test_case "reloc-field-range" `Quick test_reloc_field_range;
    Alcotest.test_case "abs32-overflow" `Quick test_abs32_overflow;
    Alcotest.test_case "rel32-overflow" `Quick test_rel32_overflow;
    Alcotest.test_case "parity interleaved-metadata" `Quick test_interleaved_metadata;
    Alcotest.test_case "parity section-symbol-lookup" `Quick test_section_symbol_lookup;
  ]
  @ workload_parity_cases "hhvm"
  @ workload_parity_cases "clang"
