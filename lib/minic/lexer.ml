(* Hand-written lexer for MiniC. *)

type token =
  | INT of int
  | IDENT of string
  | KW of string (* fn, var, if, else, while, switch, case, default, ... *)
  | PUNCT of string (* operators and punctuation *)
  | EOF

type t = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : token;
  mutable tok_line : int;
}

exception Lex_error of string * int (* message, line *)

let keywords =
  let t = Hashtbl.create 32 in
  List.iter
    (fun k -> Hashtbl.replace t k ())
    [
      "fn"; "var"; "if"; "else"; "while"; "switch"; "case"; "default"; "return";
      "extern"; "global"; "array"; "const"; "out"; "in"; "throw"; "try"; "catch";
      "break"; "continue"; "inline";
    ];
  t

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_ws lx =
  if lx.pos >= String.length lx.src then ()
  else
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_ws lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        skip_ws lx
    | '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/' ->
        while lx.pos < String.length lx.src && lx.src.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip_ws lx
    | _ -> ()

(* The operator spelled by [c1] then [c2], or "" when they spell none. *)
let two_char_op c1 c2 =
  match (c1, c2) with
  | '=', '=' -> "=="
  | '!', '=' -> "!="
  | '<', '=' -> "<="
  | '>', '=' -> ">="
  | '&', '&' -> "&&"
  | '|', '|' -> "||"
  | '<', '<' -> "<<"
  | '>', '>' -> ">>"
  | _ -> ""

(* The one-character punctuation token [c], or "" when [c] is none. *)
let one_char_punct = function
  | '+' -> "+"
  | '-' -> "-"
  | '*' -> "*"
  | '/' -> "/"
  | '%' -> "%"
  | '&' -> "&"
  | '|' -> "|"
  | '^' -> "^"
  | '<' -> "<"
  | '>' -> ">"
  | '=' -> "="
  | '!' -> "!"
  | '(' -> "("
  | ')' -> ")"
  | '{' -> "{"
  | '}' -> "}"
  | '[' -> "["
  | ']' -> "]"
  | ';' -> ";"
  | ',' -> ","
  | ':' -> ":"
  | _ -> ""

let scan lx =
  skip_ws lx;
  lx.tok_line <- lx.line;
  if lx.pos >= String.length lx.src then lx.tok <- EOF
  else
    let c = lx.src.[lx.pos] in
    if is_digit c then begin
      let start = lx.pos in
      while lx.pos < String.length lx.src && is_digit lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      lx.tok <- INT (int_of_string (String.sub lx.src start (lx.pos - start)))
    end
    else if is_alpha c then begin
      let start = lx.pos in
      while lx.pos < String.length lx.src && is_alnum lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      let s = String.sub lx.src start (lx.pos - start) in
      lx.tok <- (if Hashtbl.mem keywords s then KW s else IDENT s)
    end
    else begin
      let two =
        if lx.pos + 1 < String.length lx.src then two_char_op c lx.src.[lx.pos + 1]
        else ""
      in
      if two <> "" then begin
        lx.pos <- lx.pos + 2;
        lx.tok <- PUNCT two
      end
      else
        match one_char_punct c with
        | "" -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, lx.line))
        | p ->
            lx.pos <- lx.pos + 1;
            lx.tok <- PUNCT p
    end

let create ~file src =
  let lx = { src; file; pos = 0; line = 1; tok = EOF; tok_line = 1 } in
  scan lx;
  lx

let token lx = lx.tok
let token_line lx = lx.tok_line
let advance lx = scan lx

let token_desc = function
  | INT n -> string_of_int n
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | EOF -> "<eof>"
