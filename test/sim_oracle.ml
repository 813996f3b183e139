(* The pre-flat-table simulator, kept as the parity oracle for
   [Bolt_sim.Machine], [Bolt_sim.Memory], [Bolt_sim.Cache] and
   [Bolt_sim.Bpred].

   [Memory] finds every page through one polymorphic [Hashtbl];
   [Cache.access] indexes sets with [mod] and scans ways recursively;
   [Bpred] saturates with the polymorphic [min]/[max]; [Machine.run]
   predecodes each text section into two section-sized arrays and finds
   the segment of every fetch by walking a list.  The new simulator must
   give the same counters, output, exit code, uncaught flag, heat table,
   raw profile (in [Hashtbl] iteration order) and final memory.  The
   configuration, counter, sampling and raw-profile types, [Sim_error]
   and the decoder are shared with [Bolt_sim]. *)

open Bolt_isa
open Bolt_obj

module Memory = struct
  (* Sparse paged memory for the simulator.

     Pages are allocated lazily; words are little-endian.  The aligned
     8-byte fast path covers almost all traffic (stack and array cells are
     8-aligned); the byte loop handles the rest, including cross-page
     accesses. *)

  let page_bits = 12
  let page_size = 1 lsl page_bits

  type t = { pages : (int, Bytes.t) Hashtbl.t }

  let create () = { pages = Hashtbl.create 256 }

  let page m a =
    let key = a lsr page_bits in
    match Hashtbl.find_opt m.pages key with
    | Some p -> p
    | None ->
        let p = Bytes.make page_size '\x00' in
        Hashtbl.add m.pages key p;
        p

  let read8 m a = Char.code (Bytes.unsafe_get (page m a) (a land (page_size - 1)))

  let write8 m a v =
    Bytes.unsafe_set (page m a) (a land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

  let read64 m a =
    let off = a land (page_size - 1) in
    if a land 7 = 0 && off <= page_size - 8 then
      Int64.to_int (Bytes.get_int64_le (page m a) off)
    else begin
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read8 m (a + i)))
      done;
      Int64.to_int !v
    end

  let write64 m a v =
    let off = a land (page_size - 1) in
    if a land 7 = 0 && off <= page_size - 8 then
      Bytes.set_int64_le (page m a) off (Int64.of_int v)
    else begin
      let v64 = Int64.of_int v in
      for i = 0 to 7 do
        write8 m (a + i) (Int64.to_int (Int64.shift_right_logical v64 (8 * i)))
      done
    end

  let load_bytes m addr (b : Bytes.t) =
    Bytes.iteri (fun i c -> write8 m (addr + i) (Char.code c)) b
end

module Cache = struct
  (* Set-associative cache and TLB models with LRU replacement.

     Only hit/miss behaviour is modelled — the timing cost of a miss is
     charged by the machine's cycle model.  The same structure serves as a
     TLB by using page-sized "lines". *)

  type t = {
    sets : int;
    assoc : int;
    line_bits : int;
    tags : int array; (* sets * assoc, -1 = invalid *)
    stamps : int array; (* LRU timestamps *)
    mutable tick : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create ~size ~line ~assoc =
    let line_bits =
      let rec lb n acc = if n <= 1 then acc else lb (n / 2) (acc + 1) in
      lb line 0
    in
    let sets = max 1 (size / (line * assoc)) in
    {
      sets;
      assoc;
      line_bits;
      tags = Array.make (sets * assoc) (-1);
      stamps = Array.make (sets * assoc) 0;
      tick = 0;
      accesses = 0;
      misses = 0;
    }

  (* Returns true on hit.  A miss installs the line. *)
  let access c addr =
    c.accesses <- c.accesses + 1;
    c.tick <- c.tick + 1;
    let line = addr lsr c.line_bits in
    let set = line mod c.sets in
    let base = set * c.assoc in
    let rec find i =
      if i >= c.assoc then -1
      else if c.tags.(base + i) = line then i
      else find (i + 1)
    in
    let hit = find 0 in
    if hit >= 0 then begin
      c.stamps.(base + hit) <- c.tick;
      true
    end
    else begin
      c.misses <- c.misses + 1;
      (* evict LRU way *)
      let victim = ref 0 in
      for i = 1 to c.assoc - 1 do
        if c.stamps.(base + i) < c.stamps.(base + !victim) then victim := i
      done;
      c.tags.(base + !victim) <- line;
      c.stamps.(base + !victim) <- c.tick;
      false
    end

  let reset c =
    Array.fill c.tags 0 (Array.length c.tags) (-1);
    c.accesses <- 0;
    c.misses <- 0;
    c.tick <- 0
end

module Bpred = struct
  (* Branch prediction: a gshare direction predictor, a direct-mapped BTB
     for branch targets (indirect branches predict their last observed
     target) and a return-address stack. *)

  type t = {
    gshare : int array; (* 2-bit saturating counters *)
    gshare_mask : int;
    mutable ghist : int;
    btb_tags : int array;
    btb_targets : int array;
    btb_mask : int;
    ras : int array;
    mutable ras_top : int;
    mutable cond_lookups : int;
    mutable cond_misses : int;
    mutable target_misses : int;
  }

  let create ?(gshare_bits = 14) ?(btb_bits = 12) ?(ras_depth = 32) () =
    {
      gshare = Array.make (1 lsl gshare_bits) 2;
      gshare_mask = (1 lsl gshare_bits) - 1;
      ghist = 0;
      btb_tags = Array.make (1 lsl btb_bits) (-1);
      btb_targets = Array.make (1 lsl btb_bits) 0;
      btb_mask = (1 lsl btb_bits) - 1;
      ras = Array.make ras_depth 0;
      ras_top = 0;
      cond_lookups = 0;
      cond_misses = 0;
      target_misses = 0;
    }

  (* Predict and update the direction of a conditional branch at [pc].
     Returns true when the prediction was wrong. *)
  let cond_branch p pc taken =
    p.cond_lookups <- p.cond_lookups + 1;
    let idx = (pc lxor p.ghist) land p.gshare_mask in
    let ctr = p.gshare.(idx) in
    let predicted = ctr >= 2 in
    p.gshare.(idx) <- (if taken then min 3 (ctr + 1) else max 0 (ctr - 1));
    p.ghist <- ((p.ghist lsl 1) lor (if taken then 1 else 0)) land p.gshare_mask;
    let mispred = predicted <> taken in
    if mispred then p.cond_misses <- p.cond_misses + 1;
    mispred

  (* Target prediction for a taken branch (direct or indirect) at [pc].
     Returns true when the predicted target was wrong. *)
  let taken_target p pc target =
    let idx = pc land p.btb_mask in
    let mispred = p.btb_tags.(idx) <> pc || p.btb_targets.(idx) <> target in
    p.btb_tags.(idx) <- pc;
    p.btb_targets.(idx) <- target;
    if mispred then p.target_misses <- p.target_misses + 1;
    mispred

  let push_ras p addr =
    p.ras.(p.ras_top mod Array.length p.ras) <- addr;
    p.ras_top <- p.ras_top + 1

  (* Returns true when the return address was mispredicted. *)
  let pop_ras p addr =
    if p.ras_top = 0 then true
    else begin
      p.ras_top <- p.ras_top - 1;
      let predicted = p.ras.(p.ras_top mod Array.length p.ras) in
      predicted <> addr
    end

  let branch_misses p = p.cond_misses + p.target_misses
end

module Machine = struct
  include Bolt_sim.Machine

  type outcome = {
    exit_code : int;
    output : int list;
    counters : counters;
    profile : raw_profile option;
    heat : (int, int) Hashtbl.t option; (* line address -> fetches *)
    uncaught_exception : bool;
    final_mem : Memory.t; (* post-run memory, e.g. to dump PGO counters *)
  }

  (* ---- executable image ---- *)

  type seg = { seg_base : int; seg_limit : int; insns : Insn.t array; isizes : int array }

  type fninfo = {
    fi_addr : int;
    fi_size : int;
    fi_name : string;
    fi_fde : Types.fde option;
    fi_lsda : Types.lsda option;
  }

  type image = {
    segs : seg list;
    funcs : fninfo array; (* sorted by address *)
    entry : int;
    mem : Memory.t;
  }

  let predecode (sec : Types.section) =
    let n = sec.sec_size in
    let insns = Array.make n Insn.Halt in
    let isizes = Array.make n 0 in
    let pos = ref 0 in
    while !pos < n do
      match Codec.decode sec.sec_data !pos with
      | i, sz ->
          insns.(!pos) <- i;
          isizes.(!pos) <- sz;
          pos := !pos + sz
      | exception Codec.Decode_error _ ->
          (* tolerate padding bytes that are not valid instructions *)
          isizes.(!pos) <- 0;
          incr pos
    done;
    { seg_base = sec.sec_addr; seg_limit = sec.sec_addr + n; insns; isizes }

  let load (exe : Objfile.t) : image =
    if exe.kind <> Objfile.Executable then raise (Sim_error "not an executable");
    let mem = Memory.create () in
    let segs = ref [] in
    List.iter
      (fun (s : Types.section) ->
        (match s.sec_kind with
        | Types.Bss -> () (* zero-initialised by sparse memory *)
        | _ -> Memory.load_bytes mem s.sec_addr s.sec_data);
        if s.sec_kind = Types.Text then segs := predecode s :: !segs)
      exe.sections;
    let fdes = Hashtbl.create 64 in
    List.iter (fun (f : Types.fde) -> Hashtbl.replace fdes f.fde_func f) exe.fdes;
    let lsdas = Hashtbl.create 64 in
    List.iter (fun (l : Types.lsda) -> Hashtbl.replace lsdas l.lsda_func l) exe.lsdas;
    let funcs =
      Objfile.function_symbols exe
      |> List.map (fun (s : Types.symbol) ->
             {
               fi_addr = s.sym_value;
               fi_size = s.sym_size;
               fi_name = s.sym_name;
               fi_fde = Hashtbl.find_opt fdes s.sym_name;
               fi_lsda = Hashtbl.find_opt lsdas s.sym_name;
             })
      |> Array.of_list
    in
    Array.sort (fun a b -> compare a.fi_addr b.fi_addr) funcs;
    { segs = List.rev !segs; funcs; entry = exe.entry; mem }

  let function_at (img : image) addr =
    let lo = ref 0 and hi = ref (Array.length img.funcs - 1) in
    let found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let f = img.funcs.(mid) in
      if addr < f.fi_addr then hi := mid - 1
      else if addr >= f.fi_addr + f.fi_size then lo := mid + 1
      else begin
        found := Some f;
        lo := !hi + 1
      end
    done;
    !found

  (* ---- execution ---- *)

  type lbr_ring = {
    lfrom : int array;
    lto : int array;
    lmis : bool array;
    mutable lpos : int;
    mutable lcount : int;
  }

  let lbr_depth = 32

  let new_lbr () =
    {
      lfrom = Array.make lbr_depth 0;
      lto = Array.make lbr_depth 0;
      lmis = Array.make lbr_depth false;
      lpos = 0;
      lcount = 0;
    }

  let lbr_record r f t m =
    r.lfrom.(r.lpos) <- f;
    r.lto.(r.lpos) <- t;
    r.lmis.(r.lpos) <- m;
    r.lpos <- (r.lpos + 1) mod lbr_depth;
    if r.lcount < lbr_depth then r.lcount <- r.lcount + 1

  let run ?(config = default_config) ?(sampling : sample_cfg option)
      ?(heatmap = false) ?(fuel = 2_000_000_000) (exe : Objfile.t) ~(input : int array) :
      outcome =
    let img = load exe in
    let mem = img.mem in
    let c = new_counters () in
    let l1i = Cache.create ~size:config.l1i_size ~line:config.line ~assoc:4 in
    let l1d = Cache.create ~size:config.l1d_size ~line:config.line ~assoc:4 in
    let l2 = Cache.create ~size:config.l2_size ~line:config.line ~assoc:8 in
    let llc = Cache.create ~size:config.llc_size ~line:config.line ~assoc:16 in
    let itlb = Cache.create ~size:(config.itlb_entries * config.page) ~line:config.page ~assoc:4 in
    let dtlb = Cache.create ~size:(config.dtlb_entries * config.page) ~line:config.page ~assoc:4 in
    let bp = Bpred.create () in
    let lbr = new_lbr () in
    let heat = if heatmap then Some (Hashtbl.create 4096) else None in
    let prof = Option.map (fun (s : sample_cfg) -> new_raw_profile s.lbr) sampling in
    let regs = Array.make 16 0 in
    regs.(Reg.to_int Reg.sp) <- Layout.stack_top;
    let flags = ref 0 in
    let input_pos = ref 0 in
    let output = ref [] in
    let ip = ref img.entry in
    let running = ref true in
    let exit_code = ref 0 in
    let uncaught = ref false in
    let cur_line = ref (-1) in
    (* sentinel return address: returning to 0 exits *)
    regs.(15) <- regs.(15) - 8;
    Memory.write64 mem regs.(15) 0;

    let daccess addr =
      c.l1d_accesses <- c.l1d_accesses + 1;
      if not (Cache.access dtlb addr) then begin
        c.dtlb_misses <- c.dtlb_misses + 1;
        c.qcycles <- c.qcycles + config.q_tlb_miss
      end;
      if not (Cache.access l1d addr) then begin
        c.l1d_misses <- c.l1d_misses + 1;
        c.qcycles <- c.qcycles + config.q_l1_miss;
        if not (Cache.access l2 addr) then begin
          c.l2_misses <- c.l2_misses + 1;
          c.qcycles <- c.qcycles + config.q_l2_miss;
          if not (Cache.access llc addr) then begin
            c.llc_misses <- c.llc_misses + 1;
            c.qcycles <- c.qcycles + config.q_llc_miss
          end
        end
      end
    in
    let read_mem addr =
      daccess addr;
      Memory.read64 mem addr
    in
    let write_mem addr v =
      daccess addr;
      Memory.write64 mem addr v
    in
    let push v =
      regs.(15) <- regs.(15) - 8;
      write_mem regs.(15) v
    in
    let pop () =
      let v = read_mem regs.(15) in
      regs.(15) <- regs.(15) + 8;
      v
    in

    (* front-end charge when the fetch line changes *)
    let fetch addr =
      let line = addr lsr 6 in
      if line <> !cur_line then begin
        cur_line := line;
        c.l1i_accesses <- c.l1i_accesses + 1;
        (match heat with
        | Some h ->
            let key = line lsl 6 in
            Hashtbl.replace h key (1 + try Hashtbl.find h key with Not_found -> 0)
        | None -> ());
        if not (Cache.access itlb addr) then begin
          c.itlb_misses <- c.itlb_misses + 1;
          c.qcycles <- c.qcycles + config.q_tlb_miss
        end;
        if not (Cache.access l1i addr) then begin
          c.l1i_misses <- c.l1i_misses + 1;
          c.qcycles <- c.qcycles + config.q_l1_miss;
          if not (Cache.access l2 addr) then begin
            c.l2_misses <- c.l2_misses + 1;
            c.qcycles <- c.qcycles + config.q_l2_miss;
            if not (Cache.access llc addr) then begin
              c.llc_misses <- c.llc_misses + 1;
              c.qcycles <- c.qcycles + config.q_llc_miss
            end
          end
        end
      end
    in

    let decode_at addr =
      let rec find = function
        | [] -> raise (Sim_error (Printf.sprintf "jump outside text: %#x" addr))
        | (s : seg) :: rest ->
            if addr >= s.seg_base && addr < s.seg_limit then begin
              let off = addr - s.seg_base in
              let sz = s.isizes.(off) in
              if sz = 0 then
                raise (Sim_error (Printf.sprintf "misaligned execution at %#x" addr));
              (s.insns.(off), sz)
            end
            else find rest
      in
      find img.segs
    in

    (* taken control transfer bookkeeping *)
    let taken_to ~from ~target ~mispred =
      c.taken_branches <- c.taken_branches + 1;
      c.qcycles <- c.qcycles + config.q_taken;
      if mispred then begin
        c.branch_misses <- c.branch_misses + 1;
        c.qcycles <- c.qcycles + config.q_mispredict
      end;
      lbr_record lbr from target mispred;
      ip := target
    in

    (* ---- exception unwinding ---- *)
    let landing_sp fp (state : Types.cfi_state) =
      fp - state.cfa_locals - (8 * List.length state.cfa_saved)
    in
    let rec unwind at_ip =
      match function_at img at_ip with
      | None -> None
      | Some fi -> (
          let off = at_ip - fi.fi_addr in
          let pad =
            match fi.fi_lsda with
            | None -> None
            | Some l ->
                List.find_opt
                  (fun (e : Types.lsda_entry) ->
                    off >= e.lsda_start && off < e.lsda_start + e.lsda_len)
                  l.lsda_entries
          in
          match pad with
          | Some e -> (
              (* the stack pointer the landing pad expects is derived from
                 the frame state at the covered call site; the pad itself may
                 live in a split-off cold fragment with its own descriptor *)
              match fi.fi_fde with
              | Some fde ->
                  let st = Types.cfi_state_at fde.fde_cfi off in
                  if st.cfa_established then begin
                    regs.(15) <- landing_sp regs.(14) st;
                    Some (fi.fi_addr + e.lsda_pad)
                  end
                  else Some (fi.fi_addr + e.lsda_pad)
              | None -> Some (fi.fi_addr + e.lsda_pad))
          | None -> (
              (* pop this frame and continue in the caller *)
              match fi.fi_fde with
              | None -> None (* can't unwind through frame-info-less code *)
              | Some fde ->
                  let st = Types.cfi_state_at fde.fde_cfi off in
                  let ret =
                    if st.cfa_established then begin
                      let fp = regs.(14) in
                      List.iter
                        (fun (r, slot) ->
                          regs.(Reg.to_int r) <- Memory.read64 mem (fp - slot))
                        st.cfa_saved;
                      let ret = Memory.read64 mem (fp + 8) in
                      regs.(15) <- fp + 16;
                      regs.(14) <- Memory.read64 mem fp;
                      ret
                    end
                    else begin
                      let ret = Memory.read64 mem regs.(15) in
                      regs.(15) <- regs.(15) + 8;
                      ret
                    end
                  in
                  if ret = 0 then None else unwind (ret - 1)))
    in

    (* ---- sampling ---- *)
    let sample_due = ref max_int in
    let event_count () =
      match sampling with
      | None -> 0
      | Some s -> (
          match s.event with
          | Ev_cycles -> c.qcycles
          | Ev_instructions -> c.instructions
          | Ev_taken_branches -> c.taken_branches)
    in
    (match sampling with Some s -> sample_due := s.period | None -> ());
    let skid_pending = ref false in
    let take_sample () =
      match (sampling, prof) with
      | Some s, Some p ->
          p.rp_samples <- p.rp_samples + 1;
          if s.lbr then begin
            (* read the full LBR stack *)
            let n = lbr.lcount in
            for k = 0 to n - 1 do
              let idx = (lbr.lpos - n + k + (2 * lbr_depth)) mod lbr_depth in
              let f = lbr.lfrom.(idx) and t = lbr.lto.(idx) in
              (match Hashtbl.find_opt p.rp_branches (f, t) with
              | Some (cnt, mis) ->
                  incr cnt;
                  if lbr.lmis.(idx) then incr mis
              | None ->
                  Hashtbl.add p.rp_branches (f, t)
                    (ref 1, ref (if lbr.lmis.(idx) then 1 else 0)));
              if k + 1 < n then begin
                let idx' = (idx + 1) mod lbr_depth in
                let start = t and stop = lbr.lfrom.(idx') in
                if stop >= start && stop - start < 65536 then
                  match Hashtbl.find_opt p.rp_traces (start, stop) with
                  | Some r -> incr r
                  | None -> Hashtbl.add p.rp_traces (start, stop) (ref 1)
              end
            done
          end
          else begin
            let key = !ip in
            match Hashtbl.find_opt p.rp_ips key with
            | Some r -> incr r
            | None -> Hashtbl.add p.rp_ips key (ref 1)
          end
      | _ -> ()
    in

    (* ---- main loop ---- *)
    while !running do
      if c.instructions > fuel then raise (Sim_error "out of fuel");
      let pc = !ip in
      fetch pc;
      let insn, sz = decode_at pc in
      let next = pc + sz in
      c.instructions <- c.instructions + 1;
      c.qcycles <- c.qcycles + config.q_base;
      ip := next;
      (match insn with
      | Insn.Halt ->
          exit_code := regs.(0);
          running := false
      | Insn.Nop _ -> ()
      | Insn.Ret | Insn.Repz_ret ->
          let target = pop () in
          let mispred = Bpred.pop_ras bp target in
          if target = 0 then begin
            exit_code := regs.(0);
            running := false
          end
          else taken_to ~from:pc ~target ~mispred
      | Insn.Push r -> push regs.(Reg.to_int r)
      | Insn.Pop r -> regs.(Reg.to_int r) <- pop ()
      | Insn.Mov_rr (d, s) -> regs.(Reg.to_int d) <- regs.(Reg.to_int s)
      | Insn.Mov_ri (d, Insn.Imm v, _) -> regs.(Reg.to_int d) <- v
      | Insn.Load (d, b, off) -> regs.(Reg.to_int d) <- read_mem (regs.(Reg.to_int b) + off)
      | Insn.Store (b, off, s) -> write_mem (regs.(Reg.to_int b) + off) regs.(Reg.to_int s)
      | Insn.Load_abs (d, Insn.Imm a) -> regs.(Reg.to_int d) <- read_mem a
      | Insn.Store_abs (Insn.Imm a, s) -> write_mem a regs.(Reg.to_int s)
      | Insn.Lea (d, Insn.Imm a) -> regs.(Reg.to_int d) <- a
      | Insn.Lea_rel (d, Insn.Imm disp) -> regs.(Reg.to_int d) <- next + disp
      | Insn.Alu_rr (op, d, s) ->
          let a = regs.(Reg.to_int d) and b = regs.(Reg.to_int s) in
          (match op with
          | Insn.Cmp -> flags := compare a b
          | Insn.Test -> flags := compare (a land b) 0
          | Insn.Add -> regs.(Reg.to_int d) <- a + b
          | Insn.Sub -> regs.(Reg.to_int d) <- a - b
          | Insn.Mul -> regs.(Reg.to_int d) <- a * b
          | Insn.Div -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a / b)
          | Insn.Mod -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a mod b)
          | Insn.And -> regs.(Reg.to_int d) <- a land b
          | Insn.Or -> regs.(Reg.to_int d) <- a lor b
          | Insn.Xor -> regs.(Reg.to_int d) <- a lxor b
          | Insn.Shl -> regs.(Reg.to_int d) <- a lsl (b land 63)
          | Insn.Shr -> regs.(Reg.to_int d) <- a asr (b land 63))
      | Insn.Alu_ri (op, d, Insn.Imm b) ->
          let a = regs.(Reg.to_int d) in
          (match op with
          | Insn.Cmp -> flags := compare a b
          | Insn.Test -> flags := compare (a land b) 0
          | Insn.Add -> regs.(Reg.to_int d) <- a + b
          | Insn.Sub -> regs.(Reg.to_int d) <- a - b
          | Insn.Mul -> regs.(Reg.to_int d) <- a * b
          | Insn.Div -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a / b)
          | Insn.Mod -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a mod b)
          | Insn.And -> regs.(Reg.to_int d) <- a land b
          | Insn.Or -> regs.(Reg.to_int d) <- a lor b
          | Insn.Xor -> regs.(Reg.to_int d) <- a lxor b
          | Insn.Shl -> regs.(Reg.to_int d) <- a lsl (b land 63)
          | Insn.Shr -> regs.(Reg.to_int d) <- a asr (b land 63))
      | Insn.Setcc (cond, r) ->
          regs.(Reg.to_int r) <- (if Cond.holds cond !flags then 1 else 0)
      | Insn.Jmp (Insn.Imm rel, _) ->
          c.branches <- c.branches + 1;
          let target = next + rel in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Jcc (cond, Insn.Imm rel, _) ->
          c.branches <- c.branches + 1;
          c.cond_branches <- c.cond_branches + 1;
          let taken = Cond.holds cond !flags in
          let dir_mis = Bpred.cond_branch bp pc taken in
          if taken then begin
            c.cond_taken <- c.cond_taken + 1;
            taken_to ~from:pc ~target:(next + rel) ~mispred:dir_mis
          end
          else if dir_mis then begin
            c.branch_misses <- c.branch_misses + 1;
            c.qcycles <- c.qcycles + config.q_mispredict
          end
      | Insn.Call (Insn.Imm rel) ->
          c.branches <- c.branches + 1;
          c.calls <- c.calls + 1;
          push next;
          Bpred.push_ras bp next;
          let target = next + rel in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Call_ind r ->
          c.branches <- c.branches + 1;
          c.calls <- c.calls + 1;
          let target = regs.(Reg.to_int r) in
          push next;
          Bpred.push_ras bp next;
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Call_mem (Insn.Imm slot) ->
          c.branches <- c.branches + 1;
          c.calls <- c.calls + 1;
          let target = read_mem slot in
          push next;
          Bpred.push_ras bp next;
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Jmp_ind r ->
          c.branches <- c.branches + 1;
          let target = regs.(Reg.to_int r) in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Jmp_mem (Insn.Imm slot) ->
          c.branches <- c.branches + 1;
          let target = read_mem slot in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.In_ r ->
          regs.(Reg.to_int r) <-
            (if !input_pos < Array.length input then begin
               let v = input.(!input_pos) in
               incr input_pos;
               v
             end
             else 0)
      | Insn.Out r -> output := regs.(Reg.to_int r) :: !output
      | Insn.Throw -> (
          c.throws <- c.throws + 1;
          match unwind pc with
          | Some pad ->
              c.qcycles <- c.qcycles + (config.q_mispredict * 4);
              cur_line := -1;
              ip := pad
          | None ->
              uncaught := true;
              exit_code := -1;
              running := false)
      | Insn.Mov_ri (_, Insn.Sym _, _)
      | Insn.Load_abs (_, Insn.Sym _)
      | Insn.Store_abs (Insn.Sym _, _)
      | Insn.Lea (_, Insn.Sym _)
      | Insn.Lea_rel (_, Insn.Sym _)
      | Insn.Alu_ri (_, _, Insn.Sym _)
      | Insn.Jmp (Insn.Sym _, _)
      | Insn.Jcc (_, Insn.Sym _, _)
      | Insn.Call (Insn.Sym _)
      | Insn.Call_mem (Insn.Sym _)
      | Insn.Jmp_mem (Insn.Sym _) ->
          raise (Sim_error "unresolved symbol in executable"));
      (* sampling *)
      (match sampling with
      | Some s ->
          if !skid_pending then begin
            skid_pending := false;
            take_sample ()
          end;
          if event_count () >= !sample_due then begin
            sample_due := !sample_due + s.period;
            if s.precise then take_sample () else skid_pending := true
          end
      | None -> ())
    done;
    {
      exit_code = !exit_code;
      output = List.rev !output;
      counters = c;
      profile = prof;
      heat;
      uncaught_exception = !uncaught;
      final_mem = mem;
    }
end
