(* Byte-accurate encoder/decoder for BISA instructions.

   [encode] demands fully resolved operands ([Imm]); the assembler and the
   binary rewriter resolve symbols (or leave a zero placeholder plus a
   relocation) before coming here.  [decode] is total over well-formed
   code and raises [Decode_error] otherwise; round-tripping preserves both
   the instruction and its encoded size, which the rewriter depends on. *)

open Insn

exception Decode_error of int (* position *)
exception Encoding_overflow of string

let fits_i8 n = n >= -128 && n <= 127
let fits_i32 n = n >= -0x8000_0000 && n <= 0x7fff_ffff

let imm_exn what = function
  | Imm n -> n
  | Sym (s, _) ->
      invalid_arg (Printf.sprintf "Codec.encode: unresolved symbol %s in %s" s what)

let put8 b pos v = Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff))

let put_i8 b pos v =
  if not (fits_i8 v) then raise (Encoding_overflow "i8");
  put8 b pos v

(* Multi-byte fields go through the stdlib's batched little-endian
   accessors (single bounds check + word store), not a byte loop — the
   encode path runs once per instruction per rewrite. *)

let put_i32 b pos v =
  if not (fits_i32 v) then raise (Encoding_overflow "i32");
  Bytes.set_int32_le b pos (Int32.of_int v)

let put_i64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)

let get_i32 b pos = Int32.to_int (Bytes.get_int32_le b pos)

let get_i64 b pos = Int64.to_int (Bytes.get_int64_le b pos)

(* Encode [i] into [b] at [pos]; returns the number of bytes written. *)
let encode_into b pos i =
  let n = size i in
  (match i with
  | Halt -> put8 b pos 0x01
  | Nop 1 -> put8 b pos 0x02
  | Nop k ->
      if k < 2 || k > 15 then invalid_arg "Codec.encode: nop size";
      put8 b pos 0x03;
      put8 b (pos + 1) k;
      for j = 2 to k - 1 do
        put8 b (pos + j) 0x90
      done
  | Ret -> put8 b pos 0x04
  | Repz_ret ->
      put8 b pos 0x05;
      put8 b (pos + 1) 0x04
  | Push r ->
      put8 b pos 0x06;
      put8 b (pos + 1) (Reg.to_int r)
  | Pop r ->
      put8 b pos 0x07;
      put8 b (pos + 1) (Reg.to_int r)
  | Mov_rr (d, s) ->
      put8 b pos 0x08;
      put8 b (pos + 1) ((Reg.to_int d lsl 4) lor Reg.to_int s)
  | Mov_ri (d, v, I64) ->
      put8 b pos 0x09;
      put8 b (pos + 1) (Reg.to_int d);
      put_i64 b (pos + 2) (imm_exn "movabs" v)
  | Mov_ri (d, v, I32) ->
      put8 b pos 0x0A;
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "mov" v)
  | Load (d, base, off) ->
      put8 b pos 0x0B;
      put8 b (pos + 1) ((Reg.to_int d lsl 4) lor Reg.to_int base);
      put_i32 b (pos + 2) off
  | Store (base, off, s) ->
      put8 b pos 0x0C;
      put8 b (pos + 1) ((Reg.to_int s lsl 4) lor Reg.to_int base);
      put_i32 b (pos + 2) off
  | Load_abs (d, v) ->
      put8 b pos 0x0D;
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "load_abs" v)
  | Store_abs (v, s) ->
      put8 b pos 0x0E;
      put8 b (pos + 1) (Reg.to_int s);
      put_i32 b (pos + 2) (imm_exn "store_abs" v)
  | Lea (d, v) ->
      put8 b pos 0x0F;
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "lea" v)
  | Lea_rel (d, v) ->
      put8 b pos 0x56;
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "lea_rel" v)
  | Alu_rr (op, d, s) ->
      put8 b pos (0x10 + alu_code op);
      put8 b (pos + 1) ((Reg.to_int d lsl 4) lor Reg.to_int s)
  | Alu_ri (op, d, v) ->
      put8 b pos (0x20 + alu_code op);
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "alu_ri" v)
  | Setcc (c, r) ->
      put8 b pos 0x57;
      put8 b (pos + 1) ((Cond.to_int c lsl 4) lor Reg.to_int r)
  | Jmp (v, W8) ->
      put8 b pos 0x30;
      put_i8 b (pos + 1) (imm_exn "jmp8" v)
  | Jmp (v, W32) ->
      put8 b pos 0x31;
      put_i32 b (pos + 1) (imm_exn "jmp" v)
  | Jcc (c, v, W8) ->
      put8 b pos (0x40 + Cond.to_int c);
      put_i8 b (pos + 1) (imm_exn "jcc8" v)
  | Jcc (c, v, W32) ->
      put8 b pos (0x48 + Cond.to_int c);
      put8 b (pos + 1) 0;
      put_i32 b (pos + 2) (imm_exn "jcc" v)
  | Call v ->
      put8 b pos 0x50;
      put_i32 b (pos + 1) (imm_exn "call" v)
  | Call_ind r ->
      put8 b pos 0x51;
      put8 b (pos + 1) (Reg.to_int r)
  | Call_mem v ->
      put8 b pos 0x52;
      put8 b (pos + 1) 0;
      put_i32 b (pos + 2) (imm_exn "call_mem" v)
  | Jmp_ind r ->
      put8 b pos 0x53;
      put8 b (pos + 1) (Reg.to_int r)
  | Jmp_mem v ->
      put8 b pos 0x54;
      put8 b (pos + 1) 0;
      put_i32 b (pos + 2) (imm_exn "jmp_mem" v)
  | In_ r ->
      put8 b pos 0x60;
      put8 b (pos + 1) (Reg.to_int r)
  | Out r ->
      put8 b pos 0x61;
      put8 b (pos + 1) (Reg.to_int r)
  | Throw -> put8 b pos 0x62);
  n

let encode i =
  let b = Bytes.make (size i) '\x00' in
  ignore (encode_into b 0 i);
  b

(* The byte after the opcode at [pos]. *)
let byte1 b pos =
  if pos + 1 >= Bytes.length b then raise (Decode_error pos);
  Char.code (Bytes.unsafe_get b (pos + 1))

(* The encoded size of the instruction at [pos], without building it.
   This is where an encoding is checked: a known opcode, a nop length in
   2..15, a setcc condition in 0..5, and every byte inside [b].  Raises
   [Decode_error pos] otherwise. *)
let length b pos =
  if pos < 0 || pos >= Bytes.length b then raise (Decode_error pos);
  let n =
    match Char.code (Bytes.unsafe_get b pos) with
    | 0x01 | 0x02 | 0x04 | 0x62 -> 1
    | 0x03 ->
        let k = byte1 b pos in
        if k < 2 || k > 15 then raise (Decode_error pos);
        k
    | 0x57 ->
        if byte1 b pos lsr 4 > 5 then raise (Decode_error pos);
        2
    | 0x05 | 0x06 | 0x07 | 0x08 | 0x30 | 0x51 | 0x53 | 0x60 | 0x61 -> 2
    | op when (op >= 0x10 && op <= 0x1B) || (op >= 0x40 && op <= 0x45) -> 2
    | 0x31 | 0x50 -> 5
    | 0x0A | 0x0B | 0x0C | 0x0D | 0x0E | 0x0F | 0x52 | 0x54 | 0x56 -> 6
    | op when (op >= 0x20 && op <= 0x2B) || (op >= 0x48 && op <= 0x4D) -> 6
    | 0x09 -> 10
    | _ -> raise (Decode_error pos)
  in
  if pos + n > Bytes.length b then raise (Decode_error pos);
  n

(* Field readers for [decode], which has checked the whole encoding with
   [length] first. *)
let get8 b pos = Char.code (Bytes.unsafe_get b pos)

let get_i8 b pos =
  let v = get8 b pos in
  if v >= 128 then v - 256 else v

let reg_lo b pos = Reg.of_int (get8 b (pos + 1) land 0x0f)
let reg_hi b pos = Reg.of_int (get8 b (pos + 1) lsr 4)

(* Decode the instruction at [pos]; returns it with its encoded size.
   Raises [Decode_error pos] where [length] does. *)
let decode b pos =
  let n = length b pos in
  let i =
    match get8 b pos with
    | 0x01 -> Halt
    | 0x02 -> Nop 1
    | 0x03 -> Nop n
    | 0x04 -> Ret
    | 0x05 -> Repz_ret
    | 0x06 -> Push (reg_lo b pos)
    | 0x07 -> Pop (reg_lo b pos)
    | 0x08 -> Mov_rr (reg_hi b pos, reg_lo b pos)
    | 0x09 -> Mov_ri (reg_lo b pos, Imm (get_i64 b (pos + 2)), I64)
    | 0x0A -> Mov_ri (reg_lo b pos, Imm (get_i32 b (pos + 2)), I32)
    | 0x0B -> Load (reg_hi b pos, reg_lo b pos, get_i32 b (pos + 2))
    | 0x0C -> Store (reg_lo b pos, get_i32 b (pos + 2), reg_hi b pos)
    | 0x0D -> Load_abs (reg_lo b pos, Imm (get_i32 b (pos + 2)))
    | 0x0E -> Store_abs (Imm (get_i32 b (pos + 2)), reg_lo b pos)
    | 0x0F -> Lea (reg_lo b pos, Imm (get_i32 b (pos + 2)))
    | 0x56 -> Lea_rel (reg_lo b pos, Imm (get_i32 b (pos + 2)))
    | op when op >= 0x10 && op <= 0x1B ->
        Alu_rr (alu_of_code (op - 0x10), reg_hi b pos, reg_lo b pos)
    | 0x57 -> Setcc (Cond.of_int (get8 b (pos + 1) lsr 4), reg_lo b pos)
    | op when op >= 0x20 && op <= 0x2B ->
        Alu_ri (alu_of_code (op - 0x20), reg_lo b pos, Imm (get_i32 b (pos + 2)))
    | 0x30 -> Jmp (Imm (get_i8 b (pos + 1)), W8)
    | 0x31 -> Jmp (Imm (get_i32 b (pos + 1)), W32)
    | op when op >= 0x40 && op <= 0x45 ->
        Jcc (Cond.of_int (op - 0x40), Imm (get_i8 b (pos + 1)), W8)
    | op when op >= 0x48 && op <= 0x4D ->
        Jcc (Cond.of_int (op - 0x48), Imm (get_i32 b (pos + 2)), W32)
    | 0x50 -> Call (Imm (get_i32 b (pos + 1)))
    | 0x51 -> Call_ind (reg_lo b pos)
    | 0x52 -> Call_mem (Imm (get_i32 b (pos + 2)))
    | 0x53 -> Jmp_ind (reg_lo b pos)
    | 0x54 -> Jmp_mem (Imm (get_i32 b (pos + 2)))
    | 0x60 -> In_ (reg_lo b pos)
    | 0x61 -> Out (reg_lo b pos)
    | 0x62 -> Throw
    | _ -> raise (Decode_error pos)
  in
  (i, n)

(* Location of the immediate operand inside the encoding, with its width in
   bytes and its addressing kind.  Relocation plumbing in the assembler and
   the rewriter is driven by this. *)

type operand_kind =
  | Op_none
  | Op_abs of int * int (* byte offset within the encoding, width *)
  | Op_rel of int * int (* pc-relative, measured from end of insn *)

let operand_kind = function
  | Mov_ri (_, _, I64) -> Op_abs (2, 8)
  | Mov_ri (_, _, I32) -> Op_abs (2, 4)
  | Load_abs _ | Store_abs _ | Lea _ -> Op_abs (2, 4)
  | Call_mem _ | Jmp_mem _ -> Op_abs (2, 4)
  | Lea_rel _ -> Op_rel (2, 4)
  | Alu_ri _ -> Op_abs (2, 4)
  | Jmp (_, W8) -> Op_rel (1, 1)
  | Jmp (_, W32) -> Op_rel (1, 4)
  | Jcc (_, _, W8) -> Op_rel (1, 1)
  | Jcc (_, _, W32) -> Op_rel (2, 4)
  | Call _ -> Op_rel (1, 4)
  | _ -> Op_none
