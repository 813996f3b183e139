(* The from-scratch fleet assessment, kept as the parity oracle for the
   service's per-host fleet view.

   Every step rematerializes every host's retained shard, recovers every
   stale one, merges them all, scores the merge ([quality_assess]) and
   folds it into a health tick ([monitor_observe]), then takes the
   trigger decision — the assessment [Bolt_service.Service.step] made
   before it kept per-host entries and delta-kept fleet counts.  The
   service must agree with it at every step: same quality report, same
   health ticks, same trigger decisions, same merged bytes.  [monitor_pp]
   is the health-table renderer with its per-host, per-tick list scans. *)

module Fdata = Bolt_profile.Fdata
module Merge = Bolt_fleet.Merge
module Monitor = Bolt_fleet.Monitor
module Quality = Bolt_fleet.Quality
module Stale_match = Bolt_profile.Stale_match
module Sketch = Bolt_service.Sketch
module S = Bolt_service.Service
module P = Bolt_pipeline.Pipeline
module Json = Bolt_obs.Json
module Obs = Bolt_obs.Obs

(* ---- Quality.assess ---- *)

let quality_assess ?expect_build_id ?recovery (shards : Merge.loaded list)
    ~(merged : Fdata.t) : Quality.report =
  let expected =
    match expect_build_id with
    | Some id -> id
    | None -> Merge.modal_build_id shards
  in
  let merged_funcs = Fdata.func_events merged in
  let nfuncs = Hashtbl.length merged_funcs in
  (* coverage: per-shard fraction of the merged function set it touched *)
  let coverage_pct =
    match shards with
    | [] -> 0.0
    | _ when nfuncs = 0 -> 0.0
    | _ ->
        let per_shard =
          List.map
            (fun sh ->
              let seen = Fdata.func_events sh.Merge.sh_prof in
              let hit =
                Hashtbl.fold
                  (fun f _ acc -> if Hashtbl.mem merged_funcs f then acc + 1 else acc)
                  seen 0
              in
              Quality.pct hit nfuncs)
            shards
        in
        List.fold_left ( +. ) 0.0 per_shard /. float_of_int (List.length per_shard)
  in
  (* agreement: how many shards observed each merged branch key *)
  let observers = Hashtbl.create 1024 in
  List.iter
    (fun sh ->
      let mine = Hashtbl.create 256 in
      List.iter
        (fun (b : Fdata.branch) ->
          Hashtbl.replace mine (b.br_from_func, b.br_from_off, b.br_to_func, b.br_to_off) ())
        sh.Merge.sh_prof.Fdata.branches;
      Hashtbl.iter
        (fun k () ->
          Hashtbl.replace observers k (1 + try Hashtbl.find observers k with Not_found -> 0))
        mine)
    shards;
  let keys = List.length merged.Fdata.branches in
  let shared =
    List.fold_left
      (fun acc (b : Fdata.branch) ->
        let k = (b.br_from_func, b.br_from_off, b.br_to_func, b.br_to_off) in
        match Hashtbl.find_opt observers k with
        | Some n when n >= 2 -> acc + 1
        | _ -> acc)
      0 merged.Fdata.branches
  in
  let agreement_pct = Quality.pct shared keys in
  (* staleness: shards (and their events) on the wrong revision *)
  let build_tally = Hashtbl.create 8 in
  let stale_shards = ref 0 in
  let unstamped = ref 0 in
  let total_events = ref 0L in
  let stale_events = ref 0L in
  List.iter
    (fun sh ->
      let id = (Merge.header sh).Fdata.hd_build_id in
      let label = if id = "" then "<unstamped>" else id in
      Hashtbl.replace build_tally label
        (1 + try Hashtbl.find build_tally label with Not_found -> 0);
      if id = "" then incr unstamped;
      let ev = Quality.shard_events sh in
      total_events := Fdata.sat_add !total_events ev;
      if expected <> "" && id <> "" && id <> expected then begin
        incr stale_shards;
        stale_events := Fdata.sat_add !stale_events ev
      end)
    shards;
  let staleness_pct =
    if !total_events = 0L then 0.0
    else 100.0 *. Int64.to_float !stale_events /. Int64.to_float !total_events
  in
  {
    Quality.q_shards = List.length shards;
    q_hosts = List.map Merge.host_of shards |> List.sort_uniq compare;
    q_events = !total_events;
    q_functions = nfuncs;
    q_coverage_pct = coverage_pct;
    q_agreement_pct = agreement_pct;
    q_divergence_pct = (if keys = 0 then 0.0 else 100.0 -. agreement_pct);
    q_expected_build_id = expected;
    q_build_ids =
      Hashtbl.fold (fun id n acc -> (id, n) :: acc) build_tally []
      |> List.sort compare;
    q_stale_shards = !stale_shards;
    q_unstamped_shards = !unstamped;
    q_staleness_pct = staleness_pct;
    q_recovery = recovery;
  }

(* ---- Monitor.observe ---- *)

let coverage_of ~merged_funcs (sh : Merge.loaded) =
  let nfuncs = Hashtbl.length merged_funcs in
  if nfuncs = 0 then 0.0
  else begin
    let seen = Fdata.func_events sh.Merge.sh_prof in
    let hit =
      Hashtbl.fold
        (fun f _ acc -> if Hashtbl.mem merged_funcs f then acc + 1 else acc)
        seen 0
    in
    100.0 *. float_of_int hit /. float_of_int nfuncs
  end

let monitor_observe ?obs (t : Monitor.t) ~(expected_build_id : string)
    ?(recovery : (string * Stale_match.stats) list = [])
    (shards : Merge.loaded list) ~(merged : Fdata.t) : Monitor.tick =
  let open Monitor in
  let obs = match obs with Some o -> o | None -> Obs.null () in
  let index = List.length t.ticks in
  let newest = Merge.newest_timestamp shards in
  let agg_recovery =
    match List.map snd recovery with
    | [] -> None
    | st :: rest -> Some (List.fold_left Stale_match.add_stats st rest)
  in
  let quality =
    quality_assess ~expect_build_id:expected_build_id ?recovery:agg_recovery
      shards ~merged
  in
  let alerts = ref [] in
  let alert ~host kind detail =
    alerts := { al_tick = index; al_host = host; al_kind = kind; al_detail = detail } :: !alerts;
    Obs.incr obs "fleet.monitor.alerts";
    Obs.event obs ("fleet.monitor." ^ kind)
      ~attrs:
        ([ ("tick", Json.Int index); ("detail", Json.String detail) ]
        @ if host = "" then [] else [ ("host", Json.String host) ])
  in
  let th = t.thresholds in
  let merged_funcs = Fdata.func_events merged in
  let hosts =
    List.map
      (fun sh ->
        let header = Merge.header sh in
        let host = Merge.host_of sh in
        let build = header.Fdata.hd_build_id in
        let stale =
          expected_build_id <> "" && build <> "" && build <> expected_build_id
        in
        let age =
          if header.Fdata.hd_timestamp = 0 then 0
          else newest - header.Fdata.hd_timestamp
        in
        let coverage = coverage_of ~merged_funcs sh in
        let rate =
          match List.assoc_opt host recovery with
          | Some st -> Some (Stale_match.recovery_rate st)
          | None -> None
        in
        let n_alerts = ref 0 in
        let host_alert kind detail = incr n_alerts; alert ~host kind detail in
        if stale then
          host_alert "stale_build"
            (Printf.sprintf "running build %s, expected %s" build
               expected_build_id);
        if coverage < th.th_min_coverage_pct then
          host_alert "low_coverage"
            (Printf.sprintf "%.1f%% of merged functions (threshold %.1f%%)"
               coverage th.th_min_coverage_pct);
        (match rate with
        | Some r when r < th.th_min_recovery_rate ->
            host_alert "low_recovery"
              (Printf.sprintf "stale-profile recovery rate %.2f (threshold %.2f)"
                 r th.th_min_recovery_rate)
        | _ -> ());
        if age > th.th_max_age then
          host_alert "old_shard"
            (Printf.sprintf "shard is %ds behind the newest (threshold %ds)" age
               th.th_max_age);
        {
          hs_host = host;
          hs_build_id = build;
          hs_stale = stale;
          hs_age = age;
          hs_coverage_pct = coverage;
          hs_recovery_rate = rate;
          hs_events =
            (if header.Fdata.hd_events > 0L then header.Fdata.hd_events
             else sh.Merge.sh_prof.Fdata.total_samples);
          hs_alerts = !n_alerts;
        })
      shards
  in
  if quality.Quality.q_staleness_pct > th.th_max_stale_pct then
    alert ~host:"" "fleet_stale"
      (Printf.sprintf "%.1f%% of events from stale shards (threshold %.1f%%)"
         quality.Quality.q_staleness_pct th.th_max_stale_pct);
  (match (t.ticks, quality.Quality.q_recovery) with
  | prev :: _, Some st -> (
      match prev.tk_quality.Quality.q_recovery with
      | Some prev_st ->
          let r = Stale_match.recovery_rate st
          and pr = Stale_match.recovery_rate prev_st in
          if r < pr -. 0.10 then
            alert ~host:"" "recovery_drift"
              (Printf.sprintf "fleet recovery rate fell %.2f -> %.2f" pr r)
      | None -> ())
  | _ -> ());
  Obs.incr obs "fleet.monitor.ticks";
  Obs.incr obs ~by:(List.length (List.filter (fun h -> h.hs_stale) hosts))
    "fleet.monitor.stale_hosts";
  Obs.set obs "fleet.monitor.coverage_pct" quality.Quality.q_coverage_pct;
  Obs.set obs "fleet.monitor.staleness_pct" quality.Quality.q_staleness_pct;
  let tk =
    {
      tk_index = index;
      tk_expected_build_id = expected_build_id;
      tk_hosts = hosts;
      tk_quality = quality;
      tk_alerts = List.rev !alerts;
    }
  in
  t.ticks <- tk :: t.ticks;
  tk

(* ---- Monitor.pp ---- *)

let monitor_pp ppf (t : Monitor.t) =
  let open Monitor in
  match ticks t with
  | [] -> Fmt.pf ppf "fleet health: no ticks observed@."
  | all ->
      let latest = List.nth all (List.length all - 1) in
      Fmt.pf ppf "fleet health: %d tick(s), expected build %s, %d host(s)@."
        (List.length all)
        (match latest.tk_expected_build_id with "" -> "<none>" | id -> short_id id)
        (List.length latest.tk_hosts);
      Fmt.pf ppf "  %4s %6s %6s %7s %7s %7s@." "tick" "hosts" "stale" "cov%"
        "recov" "alerts";
      List.iter
        (fun tk ->
          Fmt.pf ppf "  %4d %6d %6d %7.1f %7s %7d@." tk.tk_index
            (List.length tk.tk_hosts)
            (List.length (stale_hosts tk))
            tk.tk_quality.Quality.q_coverage_pct
            (match tk.tk_quality.Quality.q_recovery with
            | Some st -> Printf.sprintf "%.2f" (Stale_match.recovery_rate st)
            | None -> "-")
            (List.length tk.tk_alerts))
        all;
      let width =
        List.fold_left
          (fun w h -> max w (String.length h.hs_host))
          12 latest.tk_hosts
      in
      Fmt.pf ppf "  %-*s %-10s %8s %6s %6s %-7s %s@." width "host" "build"
        "age(s)" "cov%" "recov" "state" "ticks";
      List.iter
        (fun (h : host_state) ->
          let history =
            String.init (List.length all) (fun i ->
                match
                  List.find_opt
                    (fun x -> x.hs_host = h.hs_host)
                    (List.nth all i).tk_hosts
                with
                | Some hx -> host_char hx
                | None -> ' ')
          in
          Fmt.pf ppf "  %-*s %-10s %8d %6.1f %6s %-7s %s@." width h.hs_host
            (match h.hs_build_id with "" -> "<none>" | id -> short_id id)
            h.hs_age h.hs_coverage_pct
            (match h.hs_recovery_rate with
            | Some r -> Printf.sprintf "%.2f" r
            | None -> "-")
            (if h.hs_stale then "STALE"
             else if h.hs_alerts > 0 then "ALERT"
             else "ok")
            history)
        latest.tk_hosts;
      let alerts = alerts t in
      if alerts <> [] then begin
        Fmt.pf ppf "  alerts:@.";
        List.iter
          (fun a ->
            Fmt.pf ppf "    [tick %d] %s%s: %s@." a.al_tick
              (if a.al_host = "" then "fleet" else a.al_host)
              (" " ^ a.al_kind) a.al_detail)
          alerts
      end

(* ---- the service loop, assessing from scratch ---- *)

(* Every host's retained shard, materialized afresh, in sorted host
   order. *)
let to_shards (sk : Sketch.t) : Merge.loaded list =
  Hashtbl.fold (fun _ hs acc -> hs :: acc) sk.Sketch.hosts []
  |> List.sort (fun a b -> compare a.Sketch.hs_host b.Sketch.hs_host)
  |> List.map (fun hs ->
         Merge.shard_of_profile ~name:hs.Sketch.hs_host (Sketch.profile_of hs))

type t = {
  cfg : S.config;
  sketch : Sketch.t;
  monitor : Monitor.t;
  mutable target : P.build option;
  mutable expected_build_id : string;
  mutable fingerprints : Bolt_obj.Fingerprint.t;
  mutable now : int;
  mutable last_reopt : int;
  mutable fresh_hosts : int;
  mutable last_merged : Fdata.t option;
}

let create ?(config = S.default_config) ?target ?expect_build_id ~start_time ()
    =
  let expected, fps =
    match target with
    | Some b -> (P.build_id b, P.fingerprints b)
    | None -> (Option.value ~default:"" expect_build_id, [])
  in
  {
    cfg = config;
    sketch = Sketch.create ~topk:config.S.c_topk ~budget:config.S.c_budget ();
    monitor = Monitor.create ~thresholds:config.S.c_thresholds ();
    target;
    expected_build_id = expected;
    fingerprints = fps;
    now = start_time;
    last_reopt = start_time;
    fresh_hosts = 0;
    last_merged = None;
  }

let assess t : Quality.report option =
  let shards = to_shards t.sketch in
  if shards = [] then None
  else begin
    let recovered, recovery =
      Merge.recover_stale_each ~fingerprints:t.fingerprints
        ~build_id:t.expected_build_id shards
    in
    let opts =
      {
        Merge.default_options with
        Merge.decay = t.cfg.S.c_decay;
        expect_build_id =
          (if t.expected_build_id = "" then None else Some t.expected_build_id);
      }
    in
    let merged = Merge.merge ~opts recovered in
    let tick =
      monitor_observe t.monitor ~expected_build_id:t.expected_build_id
        ~recovery shards ~merged
    in
    t.last_merged <- Some merged;
    Some tick.Monitor.tk_quality
  end

let trigger_reason t (q : Quality.report) : string option =
  let tr = t.cfg.S.c_trigger in
  let hosts = Sketch.hosts t.sketch in
  let recovery_ok =
    match q.Quality.q_recovery with
    | None -> true
    | Some st -> Stale_match.recovery_rate st >= tr.S.tr_min_recovery_rate
  in
  let quality_ok =
    hosts >= tr.S.tr_min_hosts
    && q.Quality.q_coverage_pct >= tr.S.tr_min_coverage_pct
    && q.Quality.q_staleness_pct <= tr.S.tr_max_staleness_pct
    && recovery_ok
  in
  if quality_ok && t.fresh_hosts >= tr.S.tr_cooldown_hosts then Some "quality"
  else if
    tr.S.tr_max_interval > 0
    && t.now - t.last_reopt >= tr.S.tr_max_interval
    && t.fresh_hosts > 0
  then Some "max_interval"
  else None

let reoptimize t =
  let merged = Option.get t.last_merged in
  (match t.target with
  | None -> ()
  | Some b ->
      let b', _report = P.bolt ~jobs:t.cfg.S.c_jobs b merged in
      t.target <- Some b';
      t.expected_build_id <- P.build_id b';
      t.fingerprints <- P.fingerprints b');
  t.last_reopt <- t.now;
  t.fresh_hosts <- 0

(* One step: ingest the canonicalized events, assess, decide, and
   re-optimize when the trigger fires.  Returns the report and the
   trigger decision. *)
let step t (events : S.event list) : Quality.report option * string option =
  let events = List.sort S.compare_event events in
  List.iter
    (fun (ev : S.event) ->
      ignore (Sketch.ingest t.sketch ~host:ev.S.ev_host ev.S.ev_text);
      t.fresh_hosts <- t.fresh_hosts + 1;
      if ev.S.ev_time > t.now then t.now <- ev.S.ev_time)
    events;
  let q = assess t in
  let trigger = match q with None -> None | Some q -> trigger_reason t q in
  if trigger <> None then reoptimize t;
  (q, trigger)
