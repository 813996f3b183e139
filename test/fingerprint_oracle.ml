(* The pre-cursor fingerprinting, kept as the parity oracle for
   [Bolt_obj.Fingerprint.compute].

   [fingerprint_fn] rescans the function's whole instruction array for
   every block, and [compute] resolves each direct call with a linear
   [List.find_opt] over the functions sorted by (address, name).  The
   production code must give the same fingerprints from one cursor pass
   per function and a binary search.  Hashing, opcode kinds and the
   decoder are shared with the production module. *)

open Bolt_obj
open Types
open Fingerprint
module Insn = Bolt_isa.Insn

(* The old direct-call resolution: first function in [funcs] order whose
   range holds [addr]. *)
let resolve_scan (funcs : symbol list) addr =
  List.find_opt (fun f -> addr >= f.sym_value && addr < f.sym_value + f.sym_size) funcs
  |> Option.map (fun f -> f.sym_name)

let fingerprint_fn ~data ~base ~size ~name ~resolve : func =
  let insns = decode_stream data ~base ~size in
  let n = Array.length insns in
  let in_func o = o >= 0 && o < size in
  (* leaders: entry, intra-function branch targets, post-branch resume *)
  let leaders = Hashtbl.create 16 in
  Hashtbl.replace leaders 0 ();
  Array.iter
    (fun (off, sz, i) ->
      let next = off + sz in
      match i with
      | Insn.Jmp (Insn.Imm rel, _) | Insn.Jcc (_, Insn.Imm rel, _) ->
          if in_func (next + rel) then Hashtbl.replace leaders (next + rel) ();
          if in_func next then Hashtbl.replace leaders next ()
      | _ ->
          if Insn.is_terminator i && in_func next then
            Hashtbl.replace leaders next ())
    insns;
  let starts =
    Hashtbl.fold (fun o () acc -> o :: acc) leaders [] |> List.sort compare
  in
  let starts_arr = Array.of_list starts in
  let nb = Array.length starts_arr in
  let block_end k = if k + 1 < nb then starts_arr.(k + 1) else size in
  let index_of_start =
    let h = Hashtbl.create 16 in
    Array.iteri (fun k o -> Hashtbl.replace h o k) starts_arr;
    fun o -> Hashtbl.find_opt h o
  in
  let calls = ref [] in
  let func_oh = ref hash_empty in
  let blocks =
    Array.to_list
      (Array.mapi
         (fun k start ->
           let stop = block_end k in
           let oh = ref hash_empty in
           let last = ref None in
           Array.iter
             (fun (off, sz, i) ->
               if off >= start && off < stop then begin
                 oh := mix !oh (op_kind i);
                 func_oh := mix !func_oh (op_kind i);
                 last := Some (off, sz, i);
                 match i with
                 | Insn.Call (Insn.Imm rel) -> (
                     match resolve (off + sz + rel) with
                     | Some callee -> calls := callee :: !calls
                     | None -> ())
                 | _ -> ()
               end)
             insns;
           (* shape: terminator class + successor positions relative to
              this block, so inserting a block shifts only its
              neighbourhood *)
           let sh = ref hash_empty in
           (match !last with
           | None -> ()
           | Some (off, sz, i) ->
               sh := mix !sh (term_class i);
               let next = off + sz in
               let succ o =
                 match index_of_start o with
                 | Some j -> sh := mix !sh (j - k + 1024)
                 | None -> sh := mix !sh 2048 (* leaves the function *)
               in
               (match i with
               | Insn.Jmp (Insn.Imm rel, _) -> succ (next + rel)
               | Insn.Jcc (_, Insn.Imm rel, _) ->
                   succ (next + rel);
                   if in_func next then succ next
               | _ -> if (not (Insn.is_terminator i)) && in_func next then succ next));
           {
             bk_off = start;
             bk_size = stop - start;
             bk_opcode_hash = !oh;
             bk_shape_hash = !sh;
           })
         starts_arr)
  in
  let cfg =
    List.fold_left
      (fun h b -> mix h b.bk_shape_hash)
      (mix hash_empty nb) blocks
  in
  {
    fp_func = name;
    fp_size = size;
    fp_opcode_hash =
      (if n = 0 then
         (* undecodable from byte 0: fall back to a raw-byte hash so even
            opaque functions fingerprint deterministically *)
         hash_string hash_empty (Bytes.sub_string data base size)
       else !func_oh);
    fp_cfg_hash = cfg;
    fp_calls = List.sort_uniq compare !calls;
    fp_blocks = blocks;
  }

(* Fingerprint every function symbol that lies inside a text section.
   Only sections and symbols are consulted, so the computation commutes
   with build-id stamping. *)
let compute ~(sections : section list) ~(symbols : symbol list) : t =
  let texts = List.filter (fun s -> s.sec_kind = Text) sections in
  let funcs =
    List.filter (fun s -> s.sym_kind = Func && s.sym_size > 0) symbols
    |> List.sort (fun a b -> compare (a.sym_value, a.sym_name) (b.sym_value, b.sym_name))
  in
  List.filter_map
    (fun sym ->
      match
        List.find_opt
          (fun s ->
            sym.sym_value >= s.sec_addr
            && sym.sym_value + sym.sym_size <= s.sec_addr + s.sec_size)
          texts
      with
      | None -> None
      | Some sec ->
          let base = sym.sym_value - sec.sec_addr in
          if base < 0 || base + sym.sym_size > Bytes.length sec.sec_data then None
          else
            Some
              (fingerprint_fn ~data:sec.sec_data ~base ~size:sym.sym_size
                 ~name:sym.sym_name
                 ~resolve:(fun off -> resolve_scan funcs (sec.sec_addr + base + off))))
    funcs

