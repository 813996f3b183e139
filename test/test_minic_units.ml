(* MiniC front-end/middle-end unit tests: lexer, parser, sema errors,
   IR cleanup invariants, PGO instrumentation and the inliner. *)

open Bolt_minic

let parse src = Parser.parse_module ~name:"t" ~file:"t.mc" src

let test_lexer_tokens () =
  let lx = Lexer.create ~file:"t" "fn f(x) { return x <= 42; } // comment" in
  let rec collect acc =
    match Lexer.token lx with
    | Lexer.EOF -> List.rev acc
    | t ->
        Lexer.advance lx;
        collect (Lexer.token_desc t :: acc)
  in
  Alcotest.(check (list string)) "tokens"
    [ "fn"; "f"; "("; "x"; ")"; "{"; "return"; "x"; "<="; "42"; ";"; "}" ]
    (collect [])

let test_lexer_error () =
  let lx = Lexer.create ~file:"t" "fn f() { @ }" in
  match
    let rec go () =
      match Lexer.token lx with
      | Lexer.EOF -> ()
      | _ ->
          Lexer.advance lx;
          go ()
    in
    go ()
  with
  | () -> Alcotest.fail "expected Lex_error"
  | exception Lexer.Lex_error _ -> ()

let show_token = function
  | Lexer.INT n -> "INT " ^ string_of_int n
  | Lexer.IDENT s -> "IDENT " ^ s
  | Lexer.KW s -> "KW " ^ s
  | Lexer.PUNCT s -> "PUNCT " ^ s
  | Lexer.EOF -> "EOF"

(* The tokens of [src] up to EOF, ending with the lexer's error if it
   stops at one ("failure" for an integer literal out of range). *)
let lex src =
  let acc = ref [] in
  (try
     let lx = Lexer.create ~file:"t" src in
     while Lexer.token lx <> Lexer.EOF do
       acc := show_token (Lexer.token lx) :: !acc;
       Lexer.advance lx
     done
   with
  | Lexer.Lex_error (m, l) -> acc := Printf.sprintf "error %d: %s" l m :: !acc
  | Failure _ -> acc := "failure" :: !acc);
  List.rev !acc

let check_lex src expected = Alcotest.(check (list string)) src expected (lex src)

let test_lexer_two_char_ops () =
  List.iter
    (fun op ->
      check_lex ("a" ^ op ^ "b") [ "IDENT a"; "PUNCT " ^ op; "IDENT b" ];
      check_lex (op ^ " 1") [ "PUNCT " ^ op; "INT 1" ])
    [ "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>" ];
  (* the longest operator wins, one pair at a time *)
  check_lex "x>>=y" [ "IDENT x"; "PUNCT >>"; "PUNCT ="; "IDENT y" ];
  check_lex "a<<<b" [ "IDENT a"; "PUNCT <<"; "PUNCT <"; "IDENT b" ]

let test_lexer_equals () =
  check_lex "a = = b" [ "IDENT a"; "PUNCT ="; "PUNCT ="; "IDENT b" ];
  check_lex "a==b" [ "IDENT a"; "PUNCT =="; "IDENT b" ];
  check_lex "a===b" [ "IDENT a"; "PUNCT =="; "PUNCT ="; "IDENT b" ];
  check_lex "a=" [ "IDENT a"; "PUNCT =" ];
  check_lex "!" [ "PUNCT !" ]

let test_lexer_keyword_prefixes () =
  check_lex "in inline int inx i inlines"
    [ "KW in"; "KW inline"; "IDENT int"; "IDENT inx"; "IDENT i"; "IDENT inlines" ];
  check_lex "fn fnx var_ if2 else" [ "KW fn"; "IDENT fnx"; "IDENT var_"; "IDENT if2"; "KW else" ]

let test_lexer_ident_at_eof () =
  check_lex "foo" [ "IDENT foo" ];
  check_lex "x+y" [ "IDENT x"; "PUNCT +"; "IDENT y" ];
  check_lex "return" [ "KW return" ];
  check_lex "a // trailing comment" [ "IDENT a" ];
  check_lex "12" [ "INT 12" ]

(* The lexer before the keyword table and the two-character match:
   [List.mem] over the keyword and operator lists on [String.sub]s. *)
let reference_lex src =
  let keywords =
    [
      "fn"; "var"; "if"; "else"; "while"; "switch"; "case"; "default"; "return"; "extern";
      "global"; "array"; "const"; "out"; "in"; "throw"; "try"; "catch"; "break";
      "continue"; "inline";
    ]
  in
  let ops = [ "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>" ] in
  let n = String.length src in
  let is_digit c = c >= '0' && c <= '9' in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let rec go pos line acc =
    if pos >= n then List.rev acc
    else
      match src.[pos] with
      | ' ' | '\t' | '\r' -> go (pos + 1) line acc
      | '\n' -> go (pos + 1) (line + 1) acc
      | '/' when pos + 1 < n && src.[pos + 1] = '/' ->
          let e = try String.index_from src pos '\n' with Not_found -> n in
          go e line acc
      | c when is_digit c ->
          let e = ref pos in
          while !e < n && is_digit src.[!e] do incr e done;
          (match int_of_string_opt (String.sub src pos (!e - pos)) with
          | Some v -> go !e line (("INT " ^ string_of_int v) :: acc)
          | None -> List.rev ("failure" :: acc))
      | c when is_alpha c ->
          let e = ref pos in
          while !e < n && (is_alpha src.[!e] || is_digit src.[!e]) do incr e done;
          let s = String.sub src pos (!e - pos) in
          go !e line ((if List.mem s keywords then "KW " ^ s else "IDENT " ^ s) :: acc)
      | c ->
          let two = if pos + 1 < n then String.sub src pos 2 else "" in
          if List.mem two ops then go (pos + 2) line (("PUNCT " ^ two) :: acc)
          else if String.contains "+-*/%&|^<>=!(){}[];,:" c then
            go (pos + 1) line (("PUNCT " ^ String.make 1 c) :: acc)
          else List.rev (Printf.sprintf "error %d: unexpected character %C" line c :: acc)
  in
  go 0 1 []

let lexer_reference_prop =
  let piece =
    QCheck.Gen.oneofl
      [
        "in"; "inline"; "int"; "fn"; "x"; "_a1"; "42"; "0"; " "; "\n"; "// c\n"; "="; "=="; "!";
        "<"; ">"; "&"; "|"; "+"; "-"; "*"; "/"; "%"; "^"; "("; ")"; "{"; "}"; "["; "]"; ";"; ",";
        ":"; "@"; "return"; "while";
      ]
  in
  QCheck.Test.make ~name:"lexer tokens == List.mem reference" ~count:1000
    (QCheck.make ~print:(fun s -> s)
       QCheck.Gen.(map (String.concat "") (list_size (int_range 0 30) piece)))
    (fun src -> lex src = reference_lex src)

let test_parser_precedence () =
  let m = parse "fn main() { out 1 + 2 * 3 == 7 && 1 < 2; }" in
  match m.Ast.m_decls with
  | [ Ast.Dfunc f ] -> (
      match f.Ast.fn_body with
      | [ { sk = Ast.Sout (Ast.Ebin (Ast.Bland, Ast.Ebin (Ast.Beq, _, _), Ast.Ebin (Ast.Blt, _, _))); _ } ] ->
          ()
      | _ -> Alcotest.fail "unexpected parse")
  | _ -> Alcotest.fail "unexpected decls"

let test_parser_error_position () =
  match parse "fn main() {\n  var x = ;\n}" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Parser.Parse_error (_, line) -> Alcotest.(check int) "line" 2 line

let sema_fails src =
  match Sema.check [ parse src ] with
  | _ -> Alcotest.fail "expected Sema_error"
  | exception Sema.Sema_error _ -> ()

let test_sema_errors () =
  sema_fails "fn main() { out y; }";
  sema_fails "fn main() { foo(1); }";
  sema_fails "fn f(a) { return a; } fn main() { out f(1, 2); }";
  sema_fails "fn f(a,b,c,d,e) { return a; } fn main() { out f(1,2,3,4,5); }";
  sema_fails "fn main() { break; }";
  sema_fails "const t = { 1, 2 }; fn main() { t[0] = 5; }";
  sema_fails "fn f() { return 1; } fn f() { return 2; } fn main() { out f(); }";
  sema_fails "fn notmain() { return 0; }" (* no main *)

let test_sema_externals () =
  let m = parse "fn main() { out asmfn(1); }" in
  (match Sema.check [ m ] with
  | _ -> Alcotest.fail "unknown function should fail"
  | exception Sema.Sema_error _ -> ());
  ignore (Sema.check ~externals:[ ("asmfn", 1) ] [ m ])

let lower src =
  let m = parse src in
  let genv = Sema.check [ m ] in
  Lower.lower_program genv [ m ]

(* IR invariant: every terminator's targets are blocks of the function. *)
let check_cfg_closed (f : Ir.func) =
  let ok = ref true in
  List.iter
    (fun (_, b) ->
      List.iter
        (fun s -> if not (List.mem_assoc s f.Ir.f_blocks) then ok := false)
        (Ir.successors b.Ir.term);
      match b.Ir.lp with
      | Some l -> if not (List.mem_assoc l f.Ir.f_blocks) then ok := false
      | None -> ())
    f.Ir.f_blocks;
  !ok

let tricky_src =
  {| global g = 0;
     fn main() {
       var i = 0;
       while (i < 10) {
         if (i % 2 == 0 && i > 2 || i == 1) { g = g + 1; } else { g = g + 2; }
         switch (i % 4) {
           case 0: { g = g * 2; }
           case 1: { g = g - 1; }
           case 2: { if (g > 100) { break; } g = g + 3; }
           default: { continue; }
         }
         try { if (g % 7 == 0) { throw g; } } catch (e) { g = e + 1; }
         i = i + 1;
       }
       out g;
     } |}

let test_lower_cfg_closed () =
  let p = lower tricky_src in
  List.iter
    (fun f -> Alcotest.(check bool) (f.Ir.f_name ^ " closed") true (check_cfg_closed f))
    p.Ir.p_funcs

let test_cleanup_preserves_closure () =
  let p = lower tricky_src in
  Irpass.cleanup p;
  List.iter
    (fun f ->
      Alcotest.(check bool) "still closed" true (check_cfg_closed f);
      (* entry still present *)
      Alcotest.(check bool) "entry block" true (List.mem_assoc f.Ir.f_entry f.Ir.f_blocks))
    p.Ir.p_funcs

let test_constant_folding () =
  let p = lower "fn main() { var x = 2 + 3 * 4; if (x == 14) { out 1; } else { out 2; } }" in
  Irpass.cleanup p;
  let main = List.hd p.Ir.p_funcs in
  (* the branch must be folded away: only the out 1 path remains *)
  let has_branch =
    List.exists
      (fun (_, b) -> match b.Ir.term with Ir.Tbr _ -> true | _ -> false)
      main.Ir.f_blocks
  in
  Alcotest.(check bool) "branch folded" false has_branch

let test_instrumentation_counts_edges () =
  let p = lower "fn main() { var i = 0; while (i < 5) { i = i + 1; } out i; }" in
  Irpass.cleanup p;
  let mapping = Pgo.instrument p in
  Alcotest.(check bool) "counters assigned" true (Pgo.num_counters mapping >= 2);
  (* every counter is attached somewhere in the IR *)
  let found = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun (_, b) ->
          List.iter
            (fun (i, _) ->
              match i with Ir.Iprofcnt k -> Hashtbl.replace found k () | _ -> ())
            b.Ir.insns)
        f.Ir.f_blocks)
    p.Ir.p_funcs;
  List.iter
    (fun (_, _, _, k) ->
      Alcotest.(check bool) (Printf.sprintf "counter %d placed" k) true (Hashtbl.mem found k))
    mapping

let test_inline_scales_profile () =
  let src =
    {| fn tiny(x) { if (x > 0) { return 1; } return 2; }
       fn main() { out tiny(5); } |}
  in
  let p = lower src in
  Irpass.cleanup p;
  (* annotate a fake profile on tiny and on main's entry *)
  let tiny = List.find (fun f -> f.Ir.f_name = "tiny") p.Ir.p_funcs in
  let edges = List.concat_map (fun (l, b) -> List.map (fun s -> (l, s)) (Ir.successors b.Ir.term)) tiny.Ir.f_blocks in
  List.iter (fun (a, b) -> Hashtbl.replace tiny.Ir.f_edge_counts (a, b) 100) edges;
  let n = Inline.run ~cross_module:true ~decisions:{ Inline.default_decisions with small_threshold = 50 } p in
  Alcotest.(check bool) "inlined" true (n >= 1);
  let main = List.find (fun f -> f.Ir.f_name = "main") p.Ir.p_funcs in
  Alcotest.(check bool) "main grew" true (List.length main.Ir.f_blocks > 1)

let test_pgo_profile_files () =
  let prof = [ ("f", 0, 1, 42); ("g", 2, 3, 7) ] in
  let path = Filename.temp_file "bolt" ".edges" in
  Pgo.save_profile path prof;
  let p = Pgo.load_profile path in
  Sys.remove path;
  Alcotest.(check bool) "roundtrip" true (p = prof)

let suite =
  [
    Alcotest.test_case "lexer-tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer-error" `Quick test_lexer_error;
    Alcotest.test_case "lexer-two-char-ops" `Quick test_lexer_two_char_ops;
    Alcotest.test_case "lexer-equals" `Quick test_lexer_equals;
    Alcotest.test_case "lexer-keyword-prefixes" `Quick test_lexer_keyword_prefixes;
    Alcotest.test_case "lexer-ident-at-eof" `Quick test_lexer_ident_at_eof;
    QCheck_alcotest.to_alcotest lexer_reference_prop;
    Alcotest.test_case "parser-precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser-error-line" `Quick test_parser_error_position;
    Alcotest.test_case "sema-errors" `Quick test_sema_errors;
    Alcotest.test_case "sema-externals" `Quick test_sema_externals;
    Alcotest.test_case "lower-cfg-closed" `Quick test_lower_cfg_closed;
    Alcotest.test_case "cleanup-closed" `Quick test_cleanup_preserves_closure;
    Alcotest.test_case "constant-folding" `Quick test_constant_folding;
    Alcotest.test_case "instrumentation" `Quick test_instrumentation_counts_edges;
    Alcotest.test_case "inline" `Quick test_inline_scales_profile;
    Alcotest.test_case "pgo-files" `Quick test_pgo_profile_files;
  ]
