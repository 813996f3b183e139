(* The pre-shape ICF, kept as the parity oracle for [Bolt_core.Icf].

   It renders every candidate function to a string key through
   [Insn.to_string] on every fixpoint round; [Icf.run] must make exactly
   the same fold decisions, in the same order, from its interned shapes.
   Same loop, same round cap, same exec-count merge, touches and
   retargeting; returns (folded, bytes saved). *)

open Bolt_core
open Bfunc

(* A structural key for a function, with intra-function labels replaced by
   layout indices and call targets resolved through [canon]. *)
let normalize canon (fb : Bfunc.t) : string =
  let index = Hashtbl.create 32 in
  List.iteri (fun i l -> Hashtbl.replace index l i) fb.layout;
  let blk l = match Hashtbl.find_opt index l with Some i -> string_of_int i | None -> "?" in
  let buf = Buffer.create 256 in
  let jt_index = Hashtbl.create 4 in
  Array.iteri (fun k (jt : jt) -> Hashtbl.replace jt_index jt.jt_addr k) fb.jts;
  let value v =
    match v with
    | Bolt_isa.Insn.Imm n -> (
        (* jump-table base addresses normalise to the table index, so two
           functions with identical tables at different addresses fold *)
        match Hashtbl.find_opt jt_index n with
        | Some k -> Printf.sprintf "#JT%d" k
        | None -> Printf.sprintf "#%d" n)
    | Bolt_isa.Insn.Sym (s, a) -> Printf.sprintf "@%s+%d" (canon s) a
  in
  List.iter
    (fun l ->
      let b = block fb l in
      Buffer.add_string buf (Printf.sprintf "[%s lp:%b " (blk l) b.is_lp);
      List.iter
        (fun (i : minsn) ->
          (match Bolt_isa.Insn.value i.op with
          | Some v ->
              Buffer.add_string buf (Bolt_isa.Insn.to_string (Bolt_isa.Insn.with_value i.op (Bolt_isa.Insn.Imm 0)));
              Buffer.add_string buf (value v)
          | None -> Buffer.add_string buf (Bolt_isa.Insn.to_string i.op));
          (match i.lp with
          | Some p -> Buffer.add_string buf ("!lp" ^ blk p)
          | None -> ());
          Buffer.add_char buf ';')
        b.insns;
      (match b.term with
      | T_jump t -> Buffer.add_string buf ("J" ^ blk t)
      | T_cond (c, a, f) ->
          Buffer.add_string buf (Printf.sprintf "C%s,%s,%s" (Bolt_isa.Cond.name c) (blk a) (blk f))
      | T_condtail (c, fn, f) ->
          Buffer.add_string buf (Printf.sprintf "T%s,@%s,%s" (Bolt_isa.Cond.name c) (canon fn) (blk f))
      | T_indirect (Some k) ->
          let jt = fb.jts.(k) in
          Buffer.add_string buf
            (Printf.sprintf "I%b:%s" jt.jt_pic
               (String.concat "," (Array.to_list (Array.map blk jt.jt_targets))))
      | T_indirect None -> Buffer.add_string buf "I?"
      | T_stop -> Buffer.add_string buf "S");
      Buffer.add_char buf ']')
    fb.layout;
  Buffer.contents buf

let run ctx =
  let folded_total = ref 0 in
  let bytes_saved = ref 0 in
  let canon_map : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let rec canon s =
    match Hashtbl.find_opt canon_map s with Some s' -> canon s' | None -> s
  in
  let pass () =
    let seen = Hashtbl.create 256 in
    let folded_now = ref 0 in
    List.iter
      (fun fb ->
        if fb.Bfunc.folded_into = None && fb.simple then begin
          let key = normalize canon fb in
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
      (List.filter_map (fun n -> Context.func ctx n) ctx.Context.order);
    !folded_now
  in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 5 do
    incr rounds;
    let f = pass () in
    folded_total := !folded_total + f;
    continue_ := f > 0
  done;
  (* retarget all call/tail-call references to survivors *)
  Context.iter_funcs ctx (fun fb ->
      let fix (i : minsn) =
        match i.op with
        | Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (s, a)) when canon s <> s ->
            i.op <- Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (canon s, a))
        | Bolt_isa.Insn.Jmp (Bolt_isa.Insn.Sym (s, a), w) when canon s <> s ->
            i.op <- Bolt_isa.Insn.Jmp (Bolt_isa.Insn.Sym (canon s, a), w)
        | Bolt_isa.Insn.Lea (r, Bolt_isa.Insn.Sym (s, a)) when canon s <> s ->
            i.op <- Bolt_isa.Insn.Lea (r, Bolt_isa.Insn.Sym (canon s, a))
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
  (!folded_total, !bytes_saved)
