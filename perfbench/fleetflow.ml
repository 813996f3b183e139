(* The [fleet] workload: profiles streaming in from a data-center fleet.

   A seeded [Fleet_sim.scale_tape] (every 7th host still on the previous
   revision) goes through the two users of the merge layer:

   - the batch merge [bmerge --stream] runs ([Merge.merge_stream]);
   - a closed-loop replay through the service loop in tracking-only
     mode with a bounded sketch: the tape's arrival waves become
     [Service.step]s, each one starting when the previous one returned.

   No binary is compiled, simulated or rewritten here. *)

module Fdata = Bolt_profile.Fdata
module FS = Bolt_fleet.Fleet_sim
module Merge = Bolt_fleet.Merge
module S = Bolt_service.Service
module Sk = Bolt_service.Sketch
module Obs = Bolt_obs.Obs
module Trace = Bolt_obs.Trace
module M = Measure

let scale ~seed =
  {
    FS.sc_hosts = 480;
    sc_funcs = 2_000;
    sc_lines = 500;
    sc_stale_every = 7;
    sc_wave = 12;
    sc_seed = FS.default_scale.FS.sc_seed + (1_000 * seed);
  }

(* A deliberately tight sketch, so the memory bound and its cost to the
   merged profile are exercised on every replay. *)
let config (sc : FS.scale) =
  {
    S.default_config with
    S.c_topk = 64;
    c_budget = 1024 * 1024;
    c_trigger =
      {
        S.default_trigger with
        S.tr_min_hosts = sc.FS.sc_hosts / 2;
        tr_min_coverage_pct = 0.25;
        tr_max_staleness_pct = 60.0;
      };
  }

type tape = {
  sc : FS.scale;
  events : S.event list;
  texts : (string * string) list; (* (host, fdata text), arrival order *)
  lines : int;
  expected_mass : float; (* branch + sample counts over every shard *)
  bad_shards : int; (* shards the lexer reports malformed lines in *)
}

(* Event mass of a profile: branch and sample counts. *)
let mass (p : Fdata.t) =
  let m = ref 0.0 in
  List.iter (fun (b : Fdata.branch) -> m := !m +. Int64.to_float b.Fdata.br_count) p.Fdata.branches;
  List.iter (fun (x : Fdata.sample) -> m := !m +. Int64.to_float x.Fdata.sm_count) p.Fdata.samples;
  !m

let make_tape ~seed =
  let sc = scale ~seed in
  let raw = FS.scale_tape sc in
  let events = List.map (fun (t, h, x) -> { S.ev_time = t; ev_host = h; ev_text = x }) raw in
  let texts = List.map (fun (_, h, x) -> (h, x)) raw in
  (* warm-up and the reference for the merge check: one lexer pass over
     every shard, summing the counts the merge must preserve *)
  let m = ref 0.0 and bad = ref 0 in
  List.iter
    (fun (_, x) ->
      let _, warnings =
        Fdata.scan
          ~branch:(fun b -> m := !m +. Int64.to_float b.Fdata.br_count)
          ~sample:(fun x -> m := !m +. Int64.to_float x.Fdata.sm_count)
          x
      in
      if warnings <> [] then incr bad)
    texts;
  let lines = List.fold_left (fun a (_, x) -> a + M.count_lines x) 0 texts in
  { sc; events; texts; lines; expected_mass = !m; bad_shards = !bad }

(* Service.run's grouping — events sharing an arrival time form one step —
   replayed step by step so each step can be timed. *)
let waves (events : S.event list) =
  let sorted = List.sort S.compare_event events in
  List.fold_left
    (fun acc (ev : S.event) ->
      match acc with
      | (t, evs) :: rest when t = ev.S.ev_time -> (t, ev :: evs) :: rest
      | _ -> (ev.S.ev_time, [ ev ]) :: acc)
    [] sorted
  |> List.rev_map (fun (_, evs) -> List.rev evs)

type pass = {
  batch_s : float;
  replay_s : float;
  step_s : float list;
  merged : Digest.t; (* of the batch merge's bytes *)
  within_budget : bool; (* the sketch never outgrew its budget *)
  spans : (float * float) option; (* traced: step and in-step merge time *)
}

(* Sum of the [service.step] spans, and of the [fleet.merge] spans nested
   inside them. *)
let span_sums (obs : Obs.t) =
  let steps = ref 0.0 and merges = ref 0.0 in
  let rec go inside (s : Trace.span) =
    let here = s.Trace.sp_name = "service.step" in
    if here then steps := !steps +. s.Trace.sp_dur;
    if inside && s.Trace.sp_name = "fleet.merge" then merges := !merges +. s.Trace.sp_dur;
    List.iter (go (inside || here)) s.Trace.sp_children
  in
  go false (Trace.root obs.Obs.trace);
  (!steps, !merges)

(* One pass: the batch merge, then a fresh service replaying the tape.
   Returns the merged bytes and the service alongside the pass record,
   for the checks the caller makes on the first pass. *)
let pass ~traced tape : (string * S.t) * pass =
  let merged, batch_s = M.timed (fun () -> Merge.merge_stream tape.texts) in
  let obs = if traced then Some (Obs.create ~name:"perfbench" ()) else None in
  let svc =
    S.create ?obs ~config:(config tape.sc) ~expect_build_id:FS.scale_build_id
      ~start_time:FS.base_timestamp ()
  in
  let groups = waves tape.events in
  let t0 = M.now () in
  let step_s = List.map (fun evs -> snd (M.timed (fun () -> S.step svc evs))) groups in
  let replay_s = M.now () -. t0 in
  let bytes = Fdata.to_string merged in
  let sk = S.sketch svc in
  ( (bytes, svc),
    {
      batch_s;
      replay_s;
      step_s;
      merged = Digest.string bytes;
      within_budget = Sk.peak sk <= Sk.budget sk;
      spans = Option.map span_sums obs;
    } )

let run ~seed ~seconds ~traced (s : M.sheet) =
  let setups = List.init 3 (fun _ -> snd (M.timed (fun () -> ignore (make_tape ~seed)))) in
  let tape = make_tape ~seed in
  M.put s "setup_s" "s" (M.median setups);
  let reps = ref [] and kept = ref None in
  let t0 = M.now () in
  while !reps = [] || M.now () -. t0 < seconds || (traced && List.length !reps < 2) do
    (* every pass starts from the same compacted heap *)
    Gc.compact ();
    let a, p = pass ~traced:(traced && List.length !reps mod 2 = 1) tape in
    if !kept = None then kept := Some a;
    reps := p :: !reps
  done;
  let reps = List.rev !reps in
  let first = List.hd reps in
  let merged_bytes, svc = Option.get !kept in
  M.note s "fleet: seed %d, %d hosts, %d lines, %d steps per replay, %d passes in %.1fs" seed
    tape.sc.FS.sc_hosts tape.lines (List.length first.step_s) (List.length reps)
    (M.now () -. t0);
  M.note s "  per pass: merge %s s, replay %s s"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.batch_s) reps))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.replay_s) reps));
  let untraced = List.filter (fun r -> r.spans = None) reps in
  let traced_reps = List.filter (fun r -> r.spans <> None) reps in
  (* checks *)
  M.check s "batch merge identical on every pass"
    (List.for_all (fun r -> r.merged = first.merged) reps);
  let merged_prof, _ = Fdata.parse merged_bytes in
  M.check s "batch merge preserves the tape's event mass"
    (Float.abs (mass merged_prof -. tape.expected_mass) <= 1e-9 *. tape.expected_mass);
  let sharded, sharded_s =
    M.timed (fun () ->
        Merge.merge_stream_sharded ~opts:{ Merge.default_options with Merge.jobs = 2 } tape.texts)
  in
  M.check s "sharded merge (jobs = 2) identical to merge_stream"
    (Fdata.to_string sharded = merged_bytes);
  M.check s "sketch peak within budget" (List.for_all (fun r -> r.within_budget) reps);
  let sk = S.sketch svc in
  let shards = Sk.shards_in sk in
  (* what the sketch bound kept of the unbounded merge *)
  let retained_events, retained_funcs =
    match S.last_merged svc with
    | None -> (0.0, 0.0)
    | Some bounded ->
        let funcs p = float_of_int (Hashtbl.length (Fdata.func_events p)) in
        ( 100.0 *. M.ratio (mass bounded) (mass merged_prof),
          100.0 *. M.ratio (funcs bounded) (funcs merged_prof) )
  in
  M.check s "the bounded merge retains some events" (retained_events > 0.0);
  (* timings *)
  let med f rs = M.median (List.map f rs) in
  let lines = float_of_int tape.lines in
  let batch_s = med (fun r -> r.batch_s) untraced in
  let replay_s = med (fun r -> r.replay_s) untraced in
  let steps_ms = List.concat_map (fun r -> List.map (fun x -> x *. 1000.0) r.step_s) untraced in
  let tail_p, tail_ms = Option.value ~default:(100, M.percentile 100.0 steps_ms) (M.tail steps_ms) in
  M.put s "flow_wall_s" "s" (med (fun r -> r.batch_s +. r.replay_s) untraced);
  M.put s "stage_wall_s" "s" replay_s;
  M.put s "output_gain_pct" "%" retained_events;
  M.show s "merge_lines_per_s" "1/s" (M.ratio lines batch_s);
  M.show s "ingest_lines_per_s" "1/s" (M.ratio lines replay_s);
  M.show s "step_p50_ms" "ms" (M.median steps_ms);
  M.show s "step_tail_ms" (Printf.sprintf "ms (p%d of %d steps)" tail_p (List.length steps_ms))
    tail_ms;
  M.show s "events_retained_pct" "%" retained_events;
  (* per layer: fleet and service, from the traced passes *)
  let lmed f = if traced_reps = [] then 0.0 else med f traced_reps in
  let sums = List.filter_map (fun r -> r.spans) traced_reps in
  let smed f = if sums = [] then 0.0 else M.median (List.map f sums) in
  M.put s "fleet.batch_merge_s" "s" (lmed (fun r -> r.batch_s));
  M.put s "fleet.merge_lines_per_s" "1/s" (M.ratio lines (lmed (fun r -> r.batch_s)));
  M.put s "fleet.sharded_merge_j2_s" "s" sharded_s;
  M.put s "fleet.sharded_speedup" "x" (M.ratio batch_s sharded_s);
  M.put s "fleet.step_merge_s" "s" (smed snd);
  let traced_replay = lmed (fun r -> r.replay_s) in
  M.put s "service.replay_s" "s" traced_replay;
  M.put s "service.ingest_lines_per_s" "1/s" (M.ratio lines traced_replay);
  M.put s "service.step_s" "s" (smed fst);
  M.put s "service.step_self_s" "s" (smed (fun (st, m) -> st -. m));
  M.put s "service.step_p50_ms" "ms" (M.median steps_ms);
  M.put s "service.step_tail_ms" "ms" tail_ms;
  M.put s "service.step_tail_pctile" "pct" (float_of_int tail_p);
  M.put s "service.steps" "count" (float_of_int (S.steps svc));
  M.put s "service.records" "count" (float_of_int (Sk.records_in sk));
  M.put s "service.sketch_peak_bytes" "bytes" (float_of_int (Sk.peak sk));
  M.put s "service.sketch_evictions" "count" (float_of_int (Sk.evictions sk));
  M.put s "service.trigger_latency_ticks" "count"
    (match S.first_trigger_step svc with Some t -> float_of_int t | None -> -1.0);
  M.put s "service.functions_retained_pct" "%" retained_funcs;
  (* the profile layer's lexer carries both paths *)
  M.put s "profile.fdata_lines" "count" lines;
  if traced then begin
    M.put s "trace.stage_overhead_s" "s" (traced_replay -. replay_s);
    M.show s "trace ingest_lines_per_s overhead" "1/s"
      (M.ratio lines replay_s -. M.ratio lines traced_replay)
  end;
  (shards, tape.bad_shards)
