(* Workload builds shared by the suites that check the back end on real
   binaries: each (workload, tag) pair is compiled once per test run.

   - "hhvm": [hhvm_like] at 600 main-loop iterations, the perfbench
     [hhvm] program;
   - "clang": [clang_like], the perfbench [clang] compiler. *)

module Driver = Bolt_minic.Driver
module Gen = Bolt_workloads.Gen
module W = Bolt_workloads.Workloads

let lto = { Driver.default_options with lto = true }

let workloads =
  [
    ("hhvm", lazy (Gen.gen { W.hhvm_like with Gen.iterations = 600 }));
    ("clang", lazy (Gen.gen W.clang_like));
  ]

let workload name = Lazy.force (List.assoc name workloads)

let builds : (string * string, Driver.result) Hashtbl.t = Hashtbl.create 8

(* [build wname tag cc]: the build of workload [wname] with compiler
   options [cc], cached under [tag]. *)
let build wname tag (cc : Driver.options) =
  match Hashtbl.find_opt builds (wname, tag) with
  | Some r -> r
  | None ->
      let w = workload wname in
      let r =
        Driver.compile ~options:cc ~externals:w.Gen.externals ~extra_objs:w.Gen.extra_objs
          w.Gen.sources
      in
      Hashtbl.replace builds (wname, tag) r;
      r
