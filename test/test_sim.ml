(* Simulator unit tests: memory, caches, branch prediction, timing
   counters, LBR sampling, unwinding; and the parity checks against the
   pre-flat-table simulator in sim_oracle.ml. *)

open Bolt_sim
module O = Sim_oracle

let test_memory_aligned () =
  let m = Memory.create () in
  Memory.write64 m 0x1000 123456789;
  Alcotest.(check int) "read back" 123456789 (Memory.read64 m 0x1000);
  Memory.write64 m 0x1000 (-42);
  Alcotest.(check int) "negative" (-42) (Memory.read64 m 0x1000)

let test_memory_unaligned_cross_page () =
  let m = Memory.create () in
  let addr = 4096 - 3 in
  Memory.write64 m addr 0x1122334455667788;
  Alcotest.(check int) "cross-page" 0x1122334455667788 (Memory.read64 m addr);
  (* bytes land on both pages *)
  Alcotest.(check int) "low byte" 0x88 (Memory.read8 m addr);
  Alcotest.(check int) "high byte" 0x11 (Memory.read8 m (addr + 7))

let memory_prop =
  QCheck.Test.make ~name:"memory write/read roundtrip" ~count:500
    (QCheck.make QCheck.Gen.(pair (int_range 0 1_000_000) (int_range min_int max_int)))
    (fun (addr, v) ->
      let m = Memory.create () in
      Memory.write64 m addr v;
      Memory.read64 m addr = v)

let test_cache_basic () =
  let c = Cache.create ~size:1024 ~line:64 ~assoc:2 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line hit" true (Cache.access c 63);
  Alcotest.(check bool) "next line miss" false (Cache.access c 64)

let test_cache_lru () =
  (* 2-way set: three conflicting lines evict the least recently used *)
  let c = Cache.create ~size:1024 ~line:64 ~assoc:2 in
  let set_stride = 64 * (1024 / 64 / 2) in
  ignore (Cache.access c 0);
  ignore (Cache.access c set_stride);
  ignore (Cache.access c 0);
  (* evicts set_stride, not 0 *)
  ignore (Cache.access c (2 * set_stride));
  Alcotest.(check bool) "0 survives" true (Cache.access c 0);
  Alcotest.(check bool) "stride evicted" false (Cache.access c set_stride)

let test_cache_sets_pow2 () =
  match Cache.create ~size:(3 * 64 * 2) ~line:64 ~assoc:2 with
  | _ -> Alcotest.fail "3 sets accepted"
  | exception Invalid_argument _ -> ()

(* ---- Memory and Cache against the oracle ---- *)

(* Addresses near the interesting edges: page 0, a page boundary inside
   the flat table, the flat table's end ([Layout.stack_top]), far above
   it, negative, and the ends of the int range. *)
let addr_gen =
  let open QCheck.Gen in
  let top = Bolt_obj.Layout.stack_top in
  map2 ( + )
    (oneofl
       [ 0; 0x1000; 0x40_0000; top - 4096; top; top + 4096; 1 lsl 40; -4096; max_int - 64; min_int ])
    (int_range (-20) 20)

type mem_op =
  | Write64 of int * int
  | Read64 of int
  | Write8 of int * int
  | Read8 of int
  | Load of int * string

let mem_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, map2 (fun a v -> Write64 (a, v)) addr_gen int);
      (3, map (fun a -> Read64 a) addr_gen);
      (1, map2 (fun a v -> Write8 (a, v)) addr_gen (int_range 0 300));
      (1, map (fun a -> Read8 a) addr_gen);
      (1, map2 (fun a s -> Load (a, s)) addr_gen (string_size ~gen:char (int_range 0 9000)));
    ]

let show_op = function
  | Write64 (a, v) -> Printf.sprintf "write64 %#x %d" a v
  | Read64 a -> Printf.sprintf "read64 %#x" a
  | Write8 (a, v) -> Printf.sprintf "write8 %#x %d" a v
  | Read8 a -> Printf.sprintf "read8 %#x" a
  | Load (a, s) -> Printf.sprintf "load_bytes %#x (%d bytes)" a (String.length s)

(* Every read (and a final read of every 8-byte word the oracle
   allocated) agrees with the oracle after the same operations. *)
let memory_oracle_prop =
  QCheck.Test.make ~name:"Memory == oracle (aligned, unaligned, cross-page, flat edge)"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list show_op)
       QCheck.Gen.(list_size (int_range 1 40) mem_op_gen))
    (fun ops ->
      let m = Memory.create () and o = O.Memory.create () in
      List.for_all
        (fun op ->
          match op with
          | Write64 (a, v) ->
              Memory.write64 m a v;
              O.Memory.write64 o a v;
              true
          | Write8 (a, v) ->
              Memory.write8 m a v;
              O.Memory.write8 o a v;
              true
          | Read64 a -> Memory.read64 m a = O.Memory.read64 o a
          | Read8 a -> Memory.read8 m a = O.Memory.read8 o a
          | Load (a, s) ->
              Memory.load_bytes m a (Bytes.of_string s);
              O.Memory.load_bytes o a (Bytes.of_string s);
              true)
        ops
      && Hashtbl.fold
           (fun key _ ok ->
             let base = key lsl O.Memory.page_bits in
             let same = ref ok in
             for w = 0 to (O.Memory.page_size / 8) - 1 do
               let a = base + (8 * w) in
               if Memory.read64 m a <> O.Memory.read64 o a then same := false
             done;
             !same)
           o.O.Memory.pages true)

(* Hit/miss sequences and counters agree with the oracle's [mod]-indexed
   recursive way search, for caches, a TLB and a one-set counter. *)
let cache_oracle_prop =
  let geoms =
    [
      (1024, 64, 2); (8192, 64, 4); (65536, 64, 8); (16 * 4096, 4096, 4); (64 * 64, 64, 64);
      (256, 64, 4);
    ]
  in
  QCheck.Test.make ~name:"Cache.access == oracle hit/miss sequence" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl geoms)
           (list_size (int_range 1 400)
              (oneof
                 [
                   int_range 0 (1 lsl 17);
                   int_range (-4096) 4096;
                   map (fun a -> a * 4096) (int_range 0 64);
                 ]))))
    (fun ((size, line, assoc), addrs) ->
      let c = Cache.create ~size ~line ~assoc and o = O.Cache.create ~size ~line ~assoc in
      List.for_all (fun a -> Cache.access c a = O.Cache.access o a) addrs
      && c.Cache.accesses = o.O.Cache.accesses
      && c.Cache.misses = o.O.Cache.misses)

let test_bpred_direction () =
  let p = Bpred.create () in
  (* a branch always taken becomes predicted after warm-up *)
  let misses = ref 0 in
  for _ = 1 to 100 do
    if Bpred.cond_branch p 0x400100 true then incr misses
  done;
  Alcotest.(check bool) "learns always-taken" true (!misses <= 2)

let test_bpred_ras () =
  let p = Bpred.create () in
  Bpred.push_ras p 100;
  Bpred.push_ras p 200;
  Alcotest.(check bool) "pop 200" false (Bpred.pop_ras p 200);
  Alcotest.(check bool) "pop 100" false (Bpred.pop_ras p 100);
  Alcotest.(check bool) "underflow mispredicts" true (Bpred.pop_ras p 300)

let test_btb_indirect () =
  let p = Bpred.create () in
  ignore (Bpred.taken_target p 0x400500 1000);
  Alcotest.(check bool) "stable target hits" false (Bpred.taken_target p 0x400500 1000);
  Alcotest.(check bool) "changed target misses" true (Bpred.taken_target p 0x400500 2000)

(* ---- end-to-end timing/counters on a compiled program ---- *)

let compile src = (Bolt_minic.Driver.compile [ ("m", src) ]).Bolt_minic.Driver.exe

let test_counters_sane () =
  let exe =
    compile
      {| fn main() {
           var i = 0;
           while (i < 1000) { i = i + 1; }
           out i;
           return 0;
         } |}
  in
  let o = Machine.run exe ~input:[||] in
  let c = o.Machine.counters in
  Alcotest.(check bool) "instructions counted" true (c.Machine.instructions > 4000);
  Alcotest.(check bool) "cycles >= insns/4" true
    (Machine.cycles c >= c.Machine.instructions / 4);
  Alcotest.(check bool) "cond branches" true (c.Machine.cond_branches >= 1000);
  Alcotest.(check bool) "taken < total transfers sane" true
    (c.Machine.taken_branches > 900)

let test_sampling_aggregates () =
  let exe =
    compile
      {| fn spin(n) { var j = 0; while (j < n) { j = j + 1; } return j; }
         fn main() { var i = 0; while (i < 500) { i = i + spin(20) / 20; } out i; return 0; } |}
  in
  let sampling =
    { Machine.event = Machine.Ev_instructions; period = 97; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling exe ~input:[||] in
  match o.Machine.profile with
  | None -> Alcotest.fail "no profile"
  | Some p ->
      Alcotest.(check bool) "samples taken" true (p.Machine.rp_samples > 50);
      Alcotest.(check bool) "branch records" true (Hashtbl.length p.Machine.rp_branches > 3);
      Alcotest.(check bool) "fallthrough traces" true (Hashtbl.length p.Machine.rp_traces > 0);
      (* LBR mode: no plain IP samples *)
      Alcotest.(check int) "no ip samples in lbr mode" 0 (Hashtbl.length p.Machine.rp_ips)

let test_sampling_non_lbr () =
  let exe =
    compile {| fn main() { var i = 0; while (i < 2000) { i = i + 1; } out i; return 0; } |}
  in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 53; lbr = false; precise = false }
  in
  let o = Machine.run ~sampling exe ~input:[||] in
  match o.Machine.profile with
  | None -> Alcotest.fail "no profile"
  | Some p ->
      Alcotest.(check bool) "ip samples present" true (Hashtbl.length p.Machine.rp_ips > 0);
      Alcotest.(check int) "no branch records" 0 (Hashtbl.length p.Machine.rp_branches)

let test_heatmap_collection () =
  let exe =
    compile {| fn main() { var i = 0; while (i < 100) { i = i + 1; } out i; return 0; } |}
  in
  let o = Machine.run ~heatmap:true exe ~input:[||] in
  match o.Machine.heat with
  | Some h -> Alcotest.(check bool) "lines touched" true (Hashtbl.length h > 0)
  | None -> Alcotest.fail "no heat"

let test_fuel_exhaustion () =
  let exe = compile {| fn main() { var i = 1; while (i > 0) { i = i + 1; } return 0; } |} in
  match Machine.run ~fuel:10_000 exe ~input:[||] with
  | _ -> Alcotest.fail "expected Sim_error"
  | exception Machine.Sim_error _ -> ()

let test_deterministic () =
  let exe =
    compile
      {| fn main() { var i = 0; var s = 7; while (i < 3000) { s = s * 31 + i; i = i + 1; } out s; return 0; } |}
  in
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe ~input:[||] in
  Alcotest.(check bool) "same cycles" true
    (Machine.cycles a.Machine.counters = Machine.cycles b.Machine.counters);
  Alcotest.(check bool) "same output" true (a.Machine.output = b.Machine.output)

let test_samples_file_roundtrip () =
  let exe =
    compile {| fn main() { var i = 0; while (i < 3000) { i = i + 1; } out i; return 0; } |}
  in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 101; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling exe ~input:[||] in
  let p = Option.get o.Machine.profile in
  let path = Filename.temp_file "bolt" ".bprf" in
  Bolt_profile.Samples.save path p;
  let p' = Bolt_profile.Samples.load path in
  Sys.remove path;
  Alcotest.(check int) "samples" p.Machine.rp_samples p'.Machine.rp_samples;
  Alcotest.(check int) "branches" (Hashtbl.length p.Machine.rp_branches)
    (Hashtbl.length p'.Machine.rp_branches);
  Alcotest.(check int) "traces" (Hashtbl.length p.Machine.rp_traces)
    (Hashtbl.length p'.Machine.rp_traces)

(* ---- malformed text ---- *)

(* A one-section executable whose text is [bytes], entered at its first
   byte.  The bytes after the leading halt do not decode: loading must
   skip them as padding, not fail. *)
let text_exe bytes =
  let text = Bytes.of_string bytes in
  {
    (Bolt_obj.Objfile.empty Bolt_obj.Objfile.Executable) with
    Bolt_obj.Objfile.entry = Bolt_obj.Layout.text_base;
    sections =
      [
        {
          Bolt_obj.Types.sec_name = ".text";
          sec_kind = Bolt_obj.Types.Text;
          sec_addr = Bolt_obj.Layout.text_base;
          sec_data = text;
          sec_size = Bytes.length text;
        };
      ];
  }

let runs_to_halt bytes () =
  let o = Machine.run (text_exe bytes) ~input:[||] in
  Alcotest.(check int) "exit" 0 o.Machine.exit_code;
  Alcotest.(check int) "one instruction" 1 o.Machine.counters.Machine.instructions

(* ---- parity with the oracle on whole programs ---- *)

module P = Bolt_pipeline.Pipeline
module Driver = Bolt_minic.Driver
module Gen = Bolt_workloads.Gen
module W = Bolt_workloads.Workloads
module Objfile = Bolt_obj.Objfile

let counter_fields (c : Machine.counters) =
  [
    ("instructions", c.instructions); ("qcycles", c.qcycles); ("branches", c.branches);
    ("cond_branches", c.cond_branches); ("cond_taken", c.cond_taken);
    ("taken_branches", c.taken_branches); ("calls", c.calls);
    ("branch_misses", c.branch_misses); ("l1i_accesses", c.l1i_accesses);
    ("l1i_misses", c.l1i_misses); ("l1d_accesses", c.l1d_accesses);
    ("l1d_misses", c.l1d_misses); ("l2_misses", c.l2_misses); ("llc_misses", c.llc_misses);
    ("itlb_misses", c.itlb_misses); ("dtlb_misses", c.dtlb_misses); ("throws", c.throws);
  ]

(* The bytes [Samples.save] writes: the raw profile in iteration order. *)
let saved_bytes (p : Machine.raw_profile) =
  let path = Filename.temp_file "sim-parity" ".bprf" in
  Bolt_profile.Samples.save path p;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

let heat_bindings h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []

(* Every 8-byte word of every page the oracle allocated. *)
let check_memory what (o : O.Memory.t) (m : Memory.t) =
  Hashtbl.iter
    (fun key _ ->
      let base = key lsl O.Memory.page_bits in
      for w = 0 to (O.Memory.page_size / 8) - 1 do
        let a = base + (8 * w) in
        if Memory.read64 m a <> O.Memory.read64 o a then
          Alcotest.failf "%s: final memory differs at %#x" what a
      done)
    o.O.Memory.pages

(* Run [exe] under both simulators; they must agree on everything an
   outcome carries.  Returns the new outcome. *)
let same_run ?sampling ?(heatmap = false) what exe ~input =
  let o = O.Machine.run ?sampling ~heatmap exe ~input in
  let n = Machine.run ?sampling ~heatmap exe ~input in
  Alcotest.(check int) (what ^ ": exit") o.O.Machine.exit_code n.Machine.exit_code;
  Alcotest.(check (list int)) (what ^ ": output") o.O.Machine.output n.Machine.output;
  Alcotest.(check bool) (what ^ ": uncaught") o.O.Machine.uncaught_exception
    n.Machine.uncaught_exception;
  Alcotest.(check (list (pair string int))) (what ^ ": counters")
    (counter_fields o.O.Machine.counters) (counter_fields n.Machine.counters);
  Alcotest.(check (option (list (pair int int)))) (what ^ ": heat")
    (Option.map heat_bindings o.O.Machine.heat) (Option.map heat_bindings n.Machine.heat);
  Alcotest.(check (option string)) (what ^ ": samples file")
    (Option.map saved_bytes o.O.Machine.profile) (Option.map saved_bytes n.Machine.profile);
  check_memory what o.O.Machine.final_mem n.Machine.final_mem;
  n

(* The sampling modes every binary runs under, plus one unsampled run
   with the heat map on. *)
let modes =
  [
    ("lbr", Some P.default_sampling);
    ( "non-lbr",
      Some { Machine.event = Machine.Ev_instructions; period = 997; lbr = false; precise = true } );
    ( "lbr-skid",
      Some { Machine.event = Machine.Ev_taken_branches; period = 211; lbr = true; precise = false } );
    ( "non-lbr-skid",
      Some { Machine.event = Machine.Ev_cycles; period = 1009; lbr = false; precise = false } );
  ]

let same_all_modes what exe ~input ~eval_input =
  List.iter
    (fun (mode, sampling) -> ignore (same_run ?sampling (what ^ " " ^ mode) exe ~input))
    modes;
  ignore (same_run ~heatmap:true (what ^ " unsampled+heat") exe ~input:eval_input)

(* The perfbench [hhvm] program: [hhvm_like] at 600 iterations with the
   seeded request stream. *)
let hhvm_traffic ~seed =
  let w = Gen.gen { W.hhvm_like with Gen.iterations = 600 } in
  let rng = Bolt_workloads.Rng.create (7_919 * seed) in
  let lcg = 1 + Bolt_workloads.Rng.int rng 1_000_000 in
  let reseed src =
    String.split_on_char '\n' src
    |> List.map (fun line ->
           if String.starts_with ~prefix:"global lcg = " line then
             Printf.sprintf "global lcg = %d;" lcg
           else line)
    |> String.concat "\n"
  in
  { w with Gen.sources = List.map (fun (m, src) -> (m, reseed src)) w.Gen.sources }

let compile_w (w : Gen.t) cc =
  (Driver.compile ~options:cc ~externals:w.Gen.externals ~extra_objs:w.Gen.extra_objs
     w.Gen.sources)
    .Driver.exe

(* The clang flow's PGO training run, under both simulators: the counter
   arrays read back from final memory must agree. *)
let pgo_edges (w : Gen.t) cc ~input =
  let opts = { cc with Driver.pgo = Driver.Instrument } in
  let r =
    Driver.compile ~options:opts ~externals:w.Gen.externals ~extra_objs:w.Gen.extra_objs
      w.Gen.sources
  in
  let o = O.Machine.run r.Driver.exe ~input in
  let n = same_run "pgo training" r.Driver.exe ~input in
  let mapping = Option.value ~default:[] r.Driver.mapping in
  let base =
    match Objfile.find_symbol r.Driver.exe Bolt_minic.Pgo.counters_symbol with
    | Some s -> s.Bolt_obj.Types.sym_value
    | None -> Alcotest.fail "no PGO counter array"
  in
  let count = Bolt_minic.Pgo.num_counters mapping in
  let read f = Array.init count (fun i -> f (base + (8 * i))) in
  let counters = read (Memory.read64 n.Machine.final_mem) in
  Alcotest.(check (array int)) "pgo counters"
    (read (O.Memory.read64 o.O.Machine.final_mem)) counters;
  Bolt_minic.Pgo.profile_of_counters mapping counters

(* Input binary -> sampled run -> perf2bolt -> obolt, with the BELF and
   fdata round trips the CLIs make; both binaries run in every mode. *)
let parity_flow what exe ~input ~eval_input () =
  let exe = Objfile.of_string (Objfile.to_string exe) in
  same_all_modes (what ^ " input") exe ~input ~eval_input;
  let sampled = Machine.run ~sampling:P.default_sampling exe ~input in
  let fd = Bolt_profile.Perf2bolt.convert exe (Option.get sampled.Machine.profile) in
  let prof, _ = Bolt_profile.Fdata.parse (Bolt_profile.Fdata.to_string fd) in
  let out, _ = Bolt_core.Bolt.optimize exe prof in
  let out = Objfile.of_string (Objfile.to_string out) in
  same_all_modes (what ^ " optimized") out ~input ~eval_input

let lto = { Driver.default_options with lto = true }

let parity_hhvm seed () =
  let w = hhvm_traffic ~seed in
  parity_flow (Printf.sprintf "hhvm seed %d" seed) (compile_w w lto) ~input:w.Gen.input
    ~eval_input:w.Gen.input ()

let parity_clang seed () =
  let w = Gen.gen W.clang_like in
  let tok k ~n ~mix = W.token_input ~seed:((seed * 100) + k) ~n ~mix in
  let edges = pgo_edges w lto ~input:(tok 1 ~n:1_500 ~mix:50) in
  let exe = compile_w w { lto with Driver.pgo = Driver.Apply edges } in
  parity_flow (Printf.sprintf "clang seed %d" seed) exe ~input:(tok 2 ~n:1_000 ~mix:60)
    ~eval_input:(tok 3 ~n:2_000 ~mix:40) ()

(* Throws caught across frames, a throw caught a few bytes away in its
   own function (the landing pad shares the throw's fetch line), a
   rethrow from a handler and a final uncaught throw; run as compiled
   and after obolt. *)
let exception_source =
  {| fn near(x) { try { throw x; } catch (e) { return e + 1; } return 0; }
     fn leaf(x) { if (x % 7 == 3) { throw near(x); } return x + 1; }
     fn mid(x) { var a = leaf(x); var b = leaf(x + 1); return a + b; }
     fn guard(x) {
       var r = 0;
       try { r = mid(x); } catch (e) { r = e * 2; if (e % 5 == 0) { throw e + 1; } }
       return r;
     }
     fn main() {
       var i = 0; var s = 0;
       while (i < 3000) {
         try { s = s + guard(i); } catch (e) { s = s - e; }
         i = i + 1;
       }
       out s;
       throw s;
     } |}

let parity_exceptions () =
  let exe = compile exception_source in
  parity_flow "exceptions" exe ~input:[||] ~eval_input:[||] ()

let suite =
  [
    Alcotest.test_case "memory-aligned" `Quick test_memory_aligned;
    Alcotest.test_case "memory-cross-page" `Quick test_memory_unaligned_cross_page;
    QCheck_alcotest.to_alcotest memory_prop;
    Alcotest.test_case "cache-basic" `Quick test_cache_basic;
    Alcotest.test_case "cache-lru" `Quick test_cache_lru;
    Alcotest.test_case "bpred-direction" `Quick test_bpred_direction;
    Alcotest.test_case "bpred-ras" `Quick test_bpred_ras;
    Alcotest.test_case "btb-indirect" `Quick test_btb_indirect;
    Alcotest.test_case "counters-sane" `Quick test_counters_sane;
    Alcotest.test_case "sampling-lbr" `Quick test_sampling_aggregates;
    Alcotest.test_case "sampling-non-lbr" `Quick test_sampling_non_lbr;
    Alcotest.test_case "heatmap" `Quick test_heatmap_collection;
    Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "samples-roundtrip" `Quick test_samples_file_roundtrip;
    Alcotest.test_case "cache-sets-pow2" `Quick test_cache_sets_pow2;
    Alcotest.test_case "bad-setcc-text-runs" `Quick (runs_to_halt "\x01\x57\xf0");
    Alcotest.test_case "cut-off-call-text-runs" `Quick (runs_to_halt "\x01\x50\x00");
    QCheck_alcotest.to_alcotest memory_oracle_prop;
    QCheck_alcotest.to_alcotest cache_oracle_prop;
    Alcotest.test_case "parity exceptions" `Quick parity_exceptions;
    Alcotest.test_case "parity hhvm seed 1" `Slow (parity_hhvm 1);
    Alcotest.test_case "parity hhvm seed 2" `Slow (parity_hhvm 2);
    Alcotest.test_case "parity clang seed 1" `Slow (parity_clang 1);
    Alcotest.test_case "parity clang seed 2" `Slow (parity_clang 2);
  ]
