(* Pass 2/7: identical code folding at the binary level.

   BOLT's ICF folds strictly more than the linker's: it normalises block
   labels to layout indices and resolves call targets through the current
   fold map, so functions that differ only in label names, in jump-table
   placement, or that call previously-folded twins, all collapse.  The
   fixpoint iteration is what lets mutually-similar families fold.

   Cost model: a function's structure does not change while ICF runs,
   only the fold map does.  So each run computes one [shape] per
   candidate — the fold-map-independent part as bytes, interned to an
   int, plus the symbol operands in order of occurrence — and each round
   keys a function on [(shape id, symbols through the fold map)].  A
   round is then one hash lookup per function, not a re-rendering of its
   body. *)

open Bfunc
module Insn = Bolt_isa.Insn

type result = {
  folded : int; (* functions folded, all rounds *)
  bytes_saved : int;
  rounds : int; (* fixpoint rounds run *)
  shapes : int; (* distinct shape ids among the candidates *)
}

let zero = { folded = 0; bytes_saved = 0; rounds = 0; shapes = 0 }

(* Rounds before the fixpoint is cut off. *)
let max_rounds = 5

(* The fold-map-independent bytes of a function and its symbol operands.
   Every field is tagged and fixed-width or self-delimiting (instructions
   are [Codec]-encoded, whose length follows from the opcode), so two
   functions get equal bytes and equal symbol lists exactly when their
   bodies are equal up to label names and jump-table addresses.  Symbol
   operands are encoded as a tag and their addend; the names go to the
   list, so the round key can resolve them through the fold map. *)
let shape (fb : Bfunc.t) : string * string list =
  let index = Hashtbl.create 32 in
  List.iteri (fun i l -> Hashtbl.replace index l i) fb.layout;
  let jt_index = Hashtbl.create 4 in
  Array.iteri (fun k (jt : jt) -> Hashtbl.replace jt_index jt.jt_addr k) fb.jts;
  let buf = Buffer.create 256 in
  let scratch = Bytes.create 16 in
  let syms = ref [] in
  let tag c = Buffer.add_char buf c in
  let int n = Buffer.add_int64_le buf (Int64.of_int n) in
  (* a label outside the layout encodes as -1 *)
  let blk l = int (match Hashtbl.find_opt index l with Some i -> i | None -> -1) in
  let sym s = syms := s :: !syms in
  List.iter
    (fun l ->
      let b = block fb l in
      tag '[';
      blk l;
      Buffer.add_char buf (if b.is_lp then '\001' else '\000');
      List.iter
        (fun (i : minsn) ->
          let op, v =
            match Insn.value i.op with
            | Some v -> (Insn.with_value i.op (Insn.Imm 0), Some v)
            | None -> (i.op, None)
          in
          tag 'i';
          Buffer.add_subbytes buf scratch 0 (Bolt_isa.Codec.encode_into scratch 0 op);
          (match v with
          | None -> ()
          | Some (Insn.Imm n) -> (
              (* jump-table base addresses normalise to the table index,
                 so two functions with identical tables at different
                 addresses fold *)
              match Hashtbl.find_opt jt_index n with
              | Some k -> tag 'J'; int k
              | None -> tag '#'; int n)
          | Some (Insn.Sym (s, a)) -> tag '@'; int a; sym s);
          match i.lp with
          | Some p -> tag '!'; blk p
          | None -> tag ';')
        b.insns;
      match b.term with
      | T_jump t -> tag 'J'; blk t
      | T_cond (c, a, f) ->
          tag 'C';
          int (Bolt_isa.Cond.to_int c);
          blk a;
          blk f
      | T_condtail (c, fn, f) ->
          tag 'T';
          int (Bolt_isa.Cond.to_int c);
          sym fn;
          blk f
      | T_indirect (Some k) ->
          let jt = fb.jts.(k) in
          tag 'I';
          Buffer.add_char buf (if jt.jt_pic then '\001' else '\000');
          int (Array.length jt.jt_targets);
          Array.iter blk jt.jt_targets
      | T_indirect None -> tag '?'
      | T_stop -> tag 'S')
    fb.layout;
  (Buffer.contents buf, List.rev !syms)

let run ctx =
  let folded_total = ref 0 in
  let bytes_saved = ref 0 in
  let canon_map : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let rec canon s =
    match Hashtbl.find_opt canon_map s with Some s' -> canon s' | None -> s
  in
  (* one shape per candidate, in address order *)
  let ids : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let candidates =
    List.filter_map
      (fun n ->
        match Context.func ctx n with
        | Some fb when fb.folded_into = None && fb.simple ->
            let bytes, syms = shape fb in
            let id =
              match Hashtbl.find_opt ids bytes with
              | Some id -> id
              | None ->
                  let id = Hashtbl.length ids in
                  Hashtbl.add ids bytes id;
                  id
            in
            Some (fb, id, syms)
        | _ -> None)
      ctx.Context.order
  in
  let round () =
    let seen = Hashtbl.create 256 in
    let folded_now = ref 0 in
    List.iter
      (fun (fb, id, syms) ->
        if fb.folded_into = None then begin
          let key = (id, List.map canon syms) in
          match Hashtbl.find_opt seen key with
          | Some survivor when survivor <> fb.fb_name ->
              fb.folded_into <- Some survivor;
              Hashtbl.replace canon_map fb.fb_name survivor;
              (match Context.func ctx survivor with
              | Some sf -> sf.exec_count <- sf.exec_count + fb.exec_count
              | None -> ());
              incr folded_now;
              bytes_saved := !bytes_saved + fb.fb_size;
              Context.touch ctx fb.fb_name;
              Context.touch ctx survivor
          | Some _ -> ()
          | None -> Hashtbl.add seen key fb.fb_name
        end)
      candidates;
    !folded_now
  in
  let rounds = ref 0 in
  let last = ref 1 in
  while !last > 0 && !rounds < max_rounds do
    incr rounds;
    last := round ();
    folded_total := !folded_total + !last
  done;
  if !last > 0 then
    Diag.warnf ctx.Context.diag ~stage:"icf"
      "fixpoint cut off after %d rounds while still folding (%d folded in the last round)"
      max_rounds !last;
  (* retarget all call/tail-call references to survivors *)
  Context.iter_funcs ctx (fun fb ->
      let fix (i : minsn) =
        match i.op with
        | Insn.Call (Insn.Sym (s, a)) when canon s <> s ->
            i.op <- Insn.Call (Insn.Sym (canon s, a))
        | Insn.Jmp (Insn.Sym (s, a), w) when canon s <> s ->
            i.op <- Insn.Jmp (Insn.Sym (canon s, a), w)
        | Insn.Lea (r, Insn.Sym (s, a)) when canon s <> s ->
            i.op <- Insn.Lea (r, Insn.Sym (canon s, a))
        | _ -> ()
      in
      Hashtbl.iter (fun _ b -> List.iter fix b.insns) fb.blocks;
      List.iter fix fb.raw_insns;
      Hashtbl.iter
        (fun l b ->
          match b.term with
          | T_condtail (c, fn, fall) when canon fn <> fn ->
              (block fb l).term <- T_condtail (c, canon fn, fall)
          | _ -> ())
        fb.blocks);
  Context.logf ctx "icf: %d functions folded, %d bytes saved" !folded_total !bytes_saved;
  {
    folded = !folded_total;
    bytes_saved = !bytes_saved;
    rounds = !rounds;
    shapes = Hashtbl.length ids;
  }
