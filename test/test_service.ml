(* Continuous-optimization service tests: the bounded-memory sketch
   (top-K eviction, newest-shard-wins, the global byte budget, the
   round trip of an unevicted shard), the byte parity of every merge
   engine (batch, streaming, sharded by function key), the trigger
   policy on scripted tapes, tape/spool parsing, injected-clock
   manifest reproducibility, step-by-step parity of the incremental
   assessment with the from-scratch one (test/service_oracle.ml), and
   the e2e acceptance check — a 1000-host tape with drifting revisions must
   fire a re-optimization whose binary beats the pre-trigger build,
   byte-identically for any arrival order and any -j. *)

module Fdata = Bolt_profile.Fdata
module Merge = Bolt_fleet.Merge
module Monitor = Bolt_fleet.Monitor
module FS = Bolt_fleet.Fleet_sim
module S = Bolt_service.Service
module Sk = Bolt_service.Sketch
module P = Bolt_pipeline.Pipeline
module Json = Bolt_obs.Json
module Obs = Bolt_obs.Obs
module Manifest = Bolt_obs.Manifest

let in_temp name = Filename.concat (Filename.get_temp_dir_name ()) name

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Sketch: the bounded per-host state                                 *)

(* A one-host shard with [n] functions of strictly increasing weight:
   f0 is the coldest, f(n-1) the hottest. *)
let ramp_shard ?(host = "web01") ?(build = "rev1") ?(ts = 1_000) n =
  let b = Buffer.create 256 in
  Buffer.add_string b "mode lbr\n";
  Buffer.add_string b (Printf.sprintf "H host %s\n" host);
  Buffer.add_string b (Printf.sprintf "H build-id %s\n" build);
  Buffer.add_string b (Printf.sprintf "H timestamp %d\n" ts);
  Buffer.add_string b (Printf.sprintf "H events %d\n" (n * 100));
  for i = 0 to n - 1 do
    Buffer.add_string b
      (Printf.sprintf "B f%02d 0 f%02d 8 %d 0\n" i i ((i + 1) * 10))
  done;
  Buffer.contents b

let test_sketch_topk () =
  let sk = Sk.create ~topk:4 ~budget:(1 lsl 20) () in
  let ig = Sk.ingest sk ~host:"web01" (ramp_shard 10) in
  Alcotest.(check int) "records ingested" 10 ig.Sk.ig_records;
  Alcotest.(check int) "top-K entries survive" 4 (Sk.funcs sk);
  Alcotest.(check int) "the rest evicted" 6 (Sk.evictions sk);
  (* evicted mass = counts of f0..f5 = 10+20+...+60 *)
  Alcotest.(check int64) "evicted event mass" 210L (Sk.evicted_events sk);
  match Sk.to_shards sk with
  | [ sh ] ->
      let kept =
        List.map
          (fun (b : Fdata.branch) -> b.Fdata.br_from_func)
          sh.Merge.sh_prof.Fdata.branches
      in
      Alcotest.(check (list string)) "the hottest K kept"
        [ "f06"; "f07"; "f08"; "f09" ] (List.sort compare kept)
  | shards -> Alcotest.failf "expected 1 shard, got %d" (List.length shards)

let test_sketch_latest_wins () =
  let sk = Sk.create ~topk:64 ~budget:(1 lsl 20) () in
  ignore (Sk.ingest sk ~host:"web01" (ramp_shard ~build:"rev1" ~ts:100 3));
  ignore (Sk.ingest sk ~host:"web01" "mode lbr\nH host web01\nH build-id rev2\nH timestamp 200\nH events 7\nB g 0 g 4 7 0\n");
  Alcotest.(check int) "one host" 1 (Sk.hosts sk);
  Alcotest.(check int) "old shard replaced, not merged" 1 (Sk.funcs sk);
  (* supersession is not memory pressure: the eviction counter only
     tracks the budget/top-K bound *)
  Alcotest.(check int) "supersession is not an eviction" 0 (Sk.evictions sk);
  match Sk.to_shards sk with
  | [ sh ] ->
      let h = Option.get sh.Merge.sh_prof.Fdata.header in
      Alcotest.(check string) "newest build-id" "rev2" h.Fdata.hd_build_id;
      Alcotest.(check int) "newest timestamp" 200 h.Fdata.hd_timestamp
  | _ -> Alcotest.fail "expected exactly one shard"

let test_sketch_budget () =
  let budget = 4_096 in
  let sk = Sk.create ~topk:512 ~budget () in
  for i = 0 to 9 do
    ignore
      (Sk.ingest sk
         ~host:(Printf.sprintf "web%02d" i)
         (ramp_shard ~host:(Printf.sprintf "web%02d" i) 20));
    Alcotest.(check bool)
      (Printf.sprintf "occupancy <= budget after ingest %d" i)
      true
      (Sk.occupancy sk <= budget)
  done;
  Alcotest.(check bool) "peak <= budget" true (Sk.peak sk <= budget);
  Alcotest.(check bool) "the bound forced evictions" true (Sk.evictions sk > 0);
  Alcotest.(check int) "host states survive eviction" 10 (Sk.hosts sk)

(* With nothing evicted, the sketch hands back exactly the canonical
   form of the shard it ingested, duplicate keys summed, under the host
   name the service knows it by. *)
let test_sketch_round_trip () =
  let text =
    String.concat "\n"
      [
        "mode lbr"; "H host shard-claims-this"; "H build-id rev7";
        "H timestamp 4242"; "H events 900";
        "G f 208 6450b1484cf4a5 24c2db74b1ff07 -";
        "B f 0 g 0 40 2"; "B f 8 f 16 5 0"; "B f 0 g 0 60 1";
        "F f 0 8 30"; "F f 0 8 12"; "F g 0 4 9";
        "S g 4 3"; "S g 4 4"; "S f 12 1";
        "";
      ]
  in
  let sk = Sk.create ~topk:64 ~budget:(1 lsl 20) () in
  ignore (Sk.ingest sk ~host:"web07" text);
  Alcotest.(check int) "nothing evicted" 0 (Sk.evictions sk);
  let expected =
    let p = Fdata.normalize (fst (Fdata.parse text)) in
    let hd = Option.value ~default:Fdata.no_header p.Fdata.header in
    { p with Fdata.header = Some { hd with Fdata.hd_host = "web07" } }
  in
  match Sk.to_shards sk with
  | [ sh ] ->
      Alcotest.(check string) "shard named after the host" "web07"
        sh.Merge.sh_name;
      Alcotest.(check string) "to_shards == normalize (parse text)"
        (Fdata.to_string expected)
        (Fdata.to_string sh.Merge.sh_prof);
      Alcotest.(check bool) "structurally equal too" true
        (expected = sh.Merge.sh_prof)
  | shards -> Alcotest.failf "expected 1 shard, got %d" (List.length shards)

(* ------------------------------------------------------------------ *)
(* Every merge engine agrees, byte for byte                            *)

let small_scale =
  {
    FS.default_scale with
    FS.sc_hosts = 16;
    sc_funcs = 100;
    sc_lines = 200;
    sc_wave = 4;
  }

(* Every engine over the same shard texts, byte for byte: the batch
   merge over the parsed shards, the stream, and the sharded stream at
   several job counts and over reversed input. *)
let check_engines_agree label ?(opts = Merge.default_options) texts =
  let baseline = Fdata.to_string (Merge.merge_stream ~opts texts) in
  let parsed =
    List.map
      (fun (name, text) -> Merge.shard_of_profile ~name (fst (Fdata.parse text)))
      texts
  in
  Alcotest.(check string) (label ^ ": merge == stream") baseline
    (Fdata.to_string (Merge.merge ~opts parsed));
  List.iter
    (fun jobs ->
      let opts = { opts with Merge.jobs } in
      Alcotest.(check string)
        (Printf.sprintf "%s: sharded j=%d == stream" label jobs)
        baseline
        (Fdata.to_string (Merge.merge_stream_sharded ~opts texts));
      Alcotest.(check string)
        (Printf.sprintf "%s: sharded j=%d over reversed input == stream" label jobs)
        baseline
        (Fdata.to_string (Merge.merge_stream_sharded ~opts (List.rev texts))))
    [ 2; 3; 4 ]

(* Duplicate keys inside one shard, counts near [Int64.max_int]: under a
   fractional scale, scaling each record before adding differs from
   adding first, and near saturation both orders pin differently. *)
let saturating_shards =
  let big = Int64.to_string (Int64.div Int64.max_int 2L) in
  [
    ( "h1.fdata",
      String.concat "\n"
        [
          "mode lbr"; "H host h1"; "H timestamp 1000";
          "B f 0 g 0 " ^ big ^ " 1";
          "B f 0 g 0 " ^ big ^ " 1";
          "B f 8 f 12 5 0";
          "B f 8 f 12 5 0";
          "F f 0 8 " ^ big;
          "F f 0 8 " ^ big;
          "S g 4 3";
          "S g 4 3";
          "";
        ] );
    ( "h2.fdata",
      String.concat "\n"
        [
          "mode lbr"; "H host h2"; "H timestamp 2000";
          "B f 0 g 0 " ^ big ^ " 2";
          "B f 8 f 12 7 1";
          "B g 0 f 0 9 0";
          "S g 4 " ^ big;
          "";
        ] );
  ]

let test_sharded_merge_parity () =
  let texts =
    List.map (fun (_, h, x) -> (h, x)) (FS.scale_tape small_scale)
  in
  check_engines_agree "scale tape" texts;
  (* parity holds under the full option set: weights, decay, pinned id *)
  check_engines_agree "scale tape, weights+decay+id"
    ~opts:
      {
        Merge.weights = [ ("mh00003.dc1", 3.0) ];
        decay = Some 1e-6;
        expect_build_id = Some FS.scale_build_id;
        jobs = 1;
      }
    texts;
  let opts =
    { Merge.default_options with Merge.weights = [ ("h1", 3.0) ]; decay = Some 1e-3 }
  in
  check_engines_agree "saturating duplicates, weight+decay" ~opts
    saturating_shards;
  (* the rule all engines share: each record scaled, then added *)
  let f = 3.0 *. exp (-1e-3 *. 1000.0) in
  let merged = Merge.merge_stream ~opts saturating_shards in
  let count ff fo =
    List.find
      (fun (b : Fdata.branch) -> b.Fdata.br_from_func = ff && b.Fdata.br_from_off = fo)
      merged.Fdata.branches
  in
  Alcotest.(check int64) "duplicates scaled one by one"
    (Int64.add 7L (Int64.mul 2L (Fdata.sat_scale 5L f)))
    (count "f" 8).Fdata.br_count;
  Alcotest.(check bool) "and not scaled as a sum" true
    (Int64.add 7L (Fdata.sat_scale 10L f) <> (count "f" 8).Fdata.br_count);
  Alcotest.(check int64) "near max_int the sum saturates" Int64.max_int
    (count "f" 0).Fdata.br_count

(* ------------------------------------------------------------------ *)
(* Trigger policy on a scripted tape                                  *)

let tape_of_scale sc =
  List.map
    (fun (t, h, x) -> { S.ev_time = t; ev_host = h; ev_text = x })
    (FS.scale_tape sc)

let svc_config trigger =
  { S.default_config with S.c_trigger = trigger; c_topk = 512 }

let test_trigger_quality () =
  let sc = { small_scale with FS.sc_hosts = 12; sc_wave = 4 } in
  let trigger =
    {
      S.default_trigger with
      S.tr_min_hosts = 8;
      tr_min_coverage_pct = 1.0;
      tr_max_staleness_pct = 60.0;
    }
  in
  let svc =
    S.create ~config:(svc_config trigger)
      ~expect_build_id:FS.scale_build_id ~start_time:FS.base_timestamp ()
  in
  let reports = S.run svc (tape_of_scale sc) in
  Alcotest.(check int) "one step per wave" 3 (List.length reports);
  (* 4 hosts after wave 0 < min_hosts; 8 after wave 1 fire the trigger *)
  Alcotest.(check (option int)) "trigger latency" (Some 2)
    (S.first_trigger_step svc);
  match S.reopts svc with
  | r :: _ -> Alcotest.(check string) "reason" "quality" r.S.ro_reason
  | [] -> Alcotest.fail "no trigger fired"

let test_trigger_min_hosts_gate () =
  let trigger =
    { S.default_trigger with S.tr_min_hosts = 100; tr_min_coverage_pct = 1.0 }
  in
  let svc =
    S.create ~config:(svc_config trigger)
      ~expect_build_id:FS.scale_build_id ~start_time:FS.base_timestamp ()
  in
  ignore (S.run svc (tape_of_scale small_scale));
  Alcotest.(check (option int)) "too few hosts: no trigger" None
    (S.first_trigger_step svc);
  Alcotest.(check int) "no reopt recorded" 0 (List.length (S.reopts svc))

let test_trigger_max_interval () =
  (* quality can never pass (impossible coverage bar), but the
     max-staleness timer must still fire once a tick interval of
     logical time has passed with traffic arriving *)
  let trigger =
    {
      S.default_trigger with
      S.tr_min_hosts = 1;
      tr_min_coverage_pct = 1_000.0;
      tr_max_interval = FS.tick_interval;
    }
  in
  let svc =
    S.create ~config:(svc_config trigger)
      ~expect_build_id:FS.scale_build_id ~start_time:FS.base_timestamp ()
  in
  ignore (S.run svc (tape_of_scale small_scale));
  match S.reopts svc with
  | r :: _ -> Alcotest.(check string) "reason" "max_interval" r.S.ro_reason
  | [] -> Alcotest.fail "max-interval timer never fired"

(* ------------------------------------------------------------------ *)
(* Tape and spool parsing                                             *)

let test_load_tape () =
  let shard = in_temp "svc_shard.fdata" in
  write_file shard (ramp_shard 3);
  let tape = in_temp "svc_tape.txt" in
  write_file tape
    (String.concat "\n"
       [
         "# arrival script";
         Printf.sprintf "1000  web01   %s" shard;
         Printf.sprintf "nonsense web02 %s" shard;
         "1010 web03 /nonexistent/shard.fdata";
         "not-enough-fields";
         "";
       ]);
  let events, skips = S.load_tape tape in
  Alcotest.(check int) "one good event" 1 (List.length events);
  let ev = List.hd events in
  Alcotest.(check int) "time" 1_000 ev.S.ev_time;
  Alcotest.(check string) "host" "web01" ev.S.ev_host;
  Alcotest.(check int) "bad time + missing shard + short line skipped" 3
    (List.length skips)

let test_spool_scan () =
  let dir = in_temp "svc_spool" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  write_file (Filename.concat dir "a.fdata")
    (ramp_shard ~host:"web07" ~ts:4_242 3);
  (* no header: host falls back to the file name, time to default *)
  write_file (Filename.concat dir "b.fdata") "mode lbr\nB f 0 f 4 1 0\n";
  let entries, skips = S.spool_scan ~default_time:99 dir in
  Alcotest.(check int) "no skips" 0 (List.length skips);
  match List.map snd entries with
  | [ a; b ] ->
      Alcotest.(check string) "host from header" "web07" a.S.ev_host;
      Alcotest.(check int) "time from header" 4_242 a.S.ev_time;
      Alcotest.(check string) "host from file name" "b.fdata" b.S.ev_host;
      Alcotest.(check int) "default time" 99 b.S.ev_time
  | l -> Alcotest.failf "expected 2 spool entries, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Injected clock: two identical runs render identical manifests      *)

let test_manifest_reproducible () =
  let run () =
    let obs = Obs.create ~clock:(fun () -> 123.0) ~name:"boltd" () in
    let svc =
      S.create ~obs
        ~config:
          (svc_config
             { S.default_trigger with S.tr_min_hosts = 4; tr_min_coverage_pct = 1.0 })
        ~expect_build_id:FS.scale_build_id ~start_time:FS.base_timestamp ()
    in
    ignore (S.run svc (tape_of_scale small_scale));
    let m =
      Manifest.make ~tool:"boltd" ~argv:[ "boltd"; "--tape"; "t" ]
        ~sections:
          [ S.manifest_section svc; Monitor.manifest_section (S.monitor svc) ]
        obs
    in
    Json.to_string m
  in
  Alcotest.(check string) "same tape + pinned clock => same manifest bytes"
    (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* E2E: a 1000-host tape with drifting revisions through the daemon   *)

(* Replicate a small simulated fleet (fresh + stale revisions, skewed
   per-host traffic) out to 1000 hosts arriving in 8 waves, and drive
   it through the full service loop with a real target binary. *)
let thousand_host_tape (r : FS.result) =
  let base = Array.of_list r.FS.fr_shards in
  List.init 1_000 (fun i ->
      let _, prof = base.(i mod Array.length base) in
      let name = Printf.sprintf "h%04d.dc1" i in
      let header =
        Option.map
          (fun h -> { h with Fdata.hd_host = name })
          prof.Fdata.header
      in
      {
        S.ev_time = FS.base_timestamp + (i / 125 * FS.tick_interval);
        ev_host = name;
        ev_text = Fdata.to_string { prof with Fdata.header };
      })

let e2e_fleet_cfg =
  {
    FS.default_config with
    FS.fc_hosts = 4;
    fc_stale = 1;
    fc_requests = 600;
    fc_params =
      {
        FS.default_config.FS.fc_params with
        Bolt_workloads.Gen.funcs = 120;
        modules = 4;
      };
  }

let e2e_service_cfg ~jobs =
  {
    S.default_config with
    S.c_jobs = jobs;
    c_trigger =
      {
        S.default_trigger with
        S.tr_min_hosts = 600;
        tr_min_coverage_pct = 5.0;
        tr_max_staleness_pct = 60.0;
        tr_min_recovery_rate = 0.0;
      };
  }

let test_e2e_thousand_hosts () =
  let r = FS.run e2e_fleet_cfg in
  let tape = thousand_host_tape r in
  let drive ~jobs tape =
    let svc =
      S.create ~config:(e2e_service_cfg ~jobs) ~target:r.FS.fr_build
        ~start_time:FS.base_timestamp ()
    in
    ignore (S.run svc tape);
    svc
  in
  let svc = drive ~jobs:1 tape in
  (* the drifting fleet fired at least one re-optimization *)
  let reopts = S.reopts svc in
  Alcotest.(check bool) "a re-optimization fired" true (reopts <> []);
  List.iter
    (fun ro ->
      Alcotest.(check bool) "rewrite changed the build-id" true
        (ro.S.ro_build_id_before <> ro.S.ro_build_id_after))
    reopts;
  (* memory bound held across a 1000-host ingest *)
  let sk = S.sketch svc in
  Alcotest.(check bool) "sketch peak within budget" true
    (Sk.peak sk <= Sk.budget sk);
  (* the re-optimized binary beats the pre-trigger build on fleet
     traffic (taken branches, the layout objective) *)
  let taken b =
    (P.run b ~input:r.FS.fr_fleet_input).Bolt_sim.Machine.counters
      .Bolt_sim.Machine.taken_branches
  in
  let before = taken r.FS.fr_build in
  let after = taken (Option.get (S.target svc)) in
  Fmt.epr "service e2e: taken branches %d -> %d@." before after;
  Alcotest.(check bool) "optimized build takes fewer branches" true
    (after < before);
  (* determinism: a reversed tape driven at -j4 lands on byte-identical
     state — final binary, trigger profile, service + health sections.
     (Trace timings are excluded by construction: they are measured.) *)
  let svc' = drive ~jobs:4 (List.rev tape) in
  let exe_bytes s =
    Bolt_obj.Objfile.to_string (Option.get (S.target s)).P.exe
  in
  Alcotest.(check string) "final binary bytes identical" (exe_bytes svc)
    (exe_bytes svc');
  let reopt_profiles s =
    String.concat "---"
      (List.map (fun ro -> Fdata.to_string ro.S.ro_profile) (S.reopts s))
  in
  Alcotest.(check string) "trigger profiles identical" (reopt_profiles svc)
    (reopt_profiles svc');
  let state s =
    Json.to_string
      (Json.Obj [ S.manifest_section s; Monitor.manifest_section (S.monitor s) ])
  in
  Alcotest.(check string) "service + health state identical" (state svc)
    (state svc')

(* ------------------------------------------------------------------ *)
(* Step-by-step parity with the from-scratch assessment               *)

module Quality = Bolt_fleet.Quality
module O = Service_oracle

(* [Service.run]'s steps: events sharing an arrival time, in time order. *)
let waves (tape : S.event list) =
  List.fold_left
    (fun acc (ev : S.event) ->
      match acc with
      | (t, evs) :: rest when t = ev.S.ev_time -> (t, ev :: evs) :: rest
      | _ -> (ev.S.ev_time, [ ev ]) :: acc)
    [] (List.sort S.compare_event tape)
  |> List.rev_map (fun (_, evs) -> List.rev evs)

(* The same waves arriving last-first, each re-timed to the slot its
   forward counterpart had, so the clock still runs forward. *)
let reversed ws =
  List.map2
    (fun fwd w ->
      let t = (List.hd fwd).S.ev_time in
      List.map (fun ev -> { ev with S.ev_time = t }) w)
    ws (List.rev ws)

let report = Alcotest.testable Quality.pp ( = )
let bytes = Option.fold ~none:"<none>" ~some:Fdata.to_string
let health m = Json.to_string (snd (Monitor.manifest_section m))

(* Drive the service and the oracle through [ws] side by side; at every
   step the report, the trigger decision, the health section and the
   merged bytes (and the trigger profile, when one fired) must agree.
   Returns the service. *)
let check_parity label ?target ?expect_build_id config ws =
  let start_time = FS.base_timestamp in
  let svc = S.create ~config ?target ?expect_build_id ~start_time () in
  let o = O.create ~config ?target ?expect_build_id ~start_time () in
  List.iteri
    (fun i evs ->
      let at what = Printf.sprintf "%s, step %d: %s" label (i + 1) what in
      let r = S.step svc evs in
      let q, trigger = O.step o evs in
      Alcotest.(check (option report)) (at "quality report") q r.S.sr_quality;
      Alcotest.(check (option string)) (at "trigger") trigger r.S.sr_trigger;
      Alcotest.(check string) (at "health section") (health o.O.monitor)
        (health (S.monitor svc));
      Alcotest.(check string) (at "merged bytes") (bytes o.O.last_merged)
        (bytes (S.last_merged svc));
      if trigger <> None then begin
        let latest = List.hd (List.rev (S.reopts svc)) in
        Alcotest.(check string) (at "trigger profile") (bytes o.O.last_merged)
          (Fdata.to_string latest.S.ro_profile)
      end)
    ws;
  svc

let parity_scale =
  { FS.default_scale with FS.sc_hosts = 96; sc_funcs = 300; sc_lines = 120; sc_wave = 8 }

(* A sketch tight enough that most steps evict, and a trigger that fires
   repeatedly once a quarter of the fleet has reported. *)
let parity_config =
  {
    S.default_config with
    S.c_topk = 24;
    c_budget = 48 * 1024;
    c_trigger =
      {
        S.default_trigger with
        S.tr_min_hosts = 24;
        tr_min_coverage_pct = 2.0;
        tr_max_staleness_pct = 60.0;
      };
  }

let both_directions label ?target ?expect_build_id config ws =
  List.map
    (fun (dir, ws) -> check_parity (label ^ " " ^ dir) ?target ?expect_build_id config ws)
    [ ("forward", ws); ("reversed", reversed ws) ]

let test_parity_evicting () =
  let ws = waves (tape_of_scale parity_scale) in
  List.iter
    (fun svc ->
      let evictions = Sk.evictions (S.sketch svc) in
      Alcotest.(check bool) "the sketch evicted" true (evictions > 0);
      Alcotest.(check bool) "some re-optimization triggered" true (S.reopts svc <> []))
    (both_directions "evicting" ~expect_build_id:FS.scale_build_id parity_config ws)

(* Shard header weights other than 1 and age decay: scales reach the
   merge, never the report. *)
let test_parity_decay_weights () =
  let weigh i (ev : S.event) =
    let w = [| "0.5"; "2.5"; "1" |].(i mod 3) in
    { ev with S.ev_text = "H weight " ^ w ^ "\n" ^ ev.S.ev_text }
  in
  let tape = List.mapi weigh (tape_of_scale parity_scale) in
  let weight (ev : S.event) =
    (Option.get (fst (Fdata.scan ev.S.ev_text)).Fdata.header).Fdata.hd_weight
  in
  Alcotest.(check (list (float 0.0))) "header weights parse" [ 0.5; 2.5; 1.0 ]
    (List.map weight (List.filteri (fun i _ -> i < 3) tape));
  let ws = waves tape in
  ignore
    (both_directions "decay+weights" ~expect_build_id:FS.scale_build_id
       { parity_config with S.c_decay = Some 1e-5 }
       ws)

(* A drifting fleet with a real target: each re-optimization replaces
   the build-id and fingerprints mid-run, so every host's recovery is
   redone against the new revision. *)
let test_parity_reoptimized_target () =
  let r = FS.run e2e_fleet_cfg in
  let base = Array.of_list r.FS.fr_shards in
  let tape =
    List.init 20 (fun i ->
        let _, prof = base.(i mod Array.length base) in
        let name = Printf.sprintf "d%03d.dc1" i in
        let header = Option.map (fun h -> { h with Fdata.hd_host = name }) prof.Fdata.header in
        {
          S.ev_time = FS.base_timestamp + (i / 4 * FS.tick_interval);
          ev_host = name;
          ev_text = Fdata.to_string { prof with Fdata.header };
        })
  in
  let config =
    {
      parity_config with
      S.c_topk = 64;
      c_budget = 1 lsl 20;
      c_trigger =
        {
          S.default_trigger with
          S.tr_min_hosts = 8;
          tr_min_coverage_pct = 5.0;
          tr_max_staleness_pct = 60.0;
          tr_min_recovery_rate = 0.0;
          tr_max_interval = 2 * FS.tick_interval;
        };
    }
  in
  List.iter
    (fun svc ->
      Alcotest.(check bool) "re-optimized more than once" true
        (List.length (S.reopts svc) >= 2))
    (both_directions "drifting" ~target:r.FS.fr_build config (waves tape))

let suite =
  [
    Alcotest.test_case "sketch: top-K eviction order and accounting" `Quick
      test_sketch_topk;
    Alcotest.test_case "sketch: newest shard supersedes, no eviction" `Quick
      test_sketch_latest_wins;
    Alcotest.test_case "sketch: global byte budget holds under pressure" `Quick
      test_sketch_budget;
    Alcotest.test_case "sketch: round trip without eviction" `Quick
      test_sketch_round_trip;
    Alcotest.test_case "sharded merge == streaming merge (bytes)" `Quick
      test_sharded_merge_parity;
    Alcotest.test_case "trigger: quality gate after min-hosts" `Quick
      test_trigger_quality;
    Alcotest.test_case "trigger: min-hosts gate blocks" `Quick
      test_trigger_min_hosts_gate;
    Alcotest.test_case "trigger: max-interval timer" `Quick
      test_trigger_max_interval;
    Alcotest.test_case "tape: parse + skip diagnostics" `Quick test_load_tape;
    Alcotest.test_case "spool: header-driven host/time" `Quick test_spool_scan;
    Alcotest.test_case "manifest: injected clock reproducibility" `Quick
      test_manifest_reproducible;
    Alcotest.test_case "e2e: 1000-host tape triggers a winning re-opt" `Slow
      test_e2e_thousand_hosts;
    Alcotest.test_case "parity: evicting sketch, forward and reversed" `Quick
      test_parity_evicting;
    Alcotest.test_case "parity: decay and shard weights" `Quick
      test_parity_decay_weights;
    Alcotest.test_case "parity: re-optimized target changes fingerprints" `Quick
      test_parity_reoptimized_target;
  ]
