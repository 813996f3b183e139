(* Bounded-memory per-host fleet state: what a continuous-optimization
   daemon remembers between re-optimizations.

   One shard arrives per host per reporting interval; keeping every
   record of every host forever is exactly what a daemon cannot do, so
   the sketch holds, per host, the header provenance (build-id,
   timestamp, event total) plus at most [topk] function entries — the
   functions with the largest event mass — and the whole sketch lives
   under a hard byte budget estimated by a fixed per-record cost model
   (the steady-state RSS proxy that `bench service` reports).

   Eviction is *saturating*: evicted entries are gone, but their event
   mass is accumulated (64-bit saturating add) in [evicted_events] and
   each eviction bumps a counter, so the quality cost of the bound is
   observable rather than silent.  Eviction order is deterministic —
   smallest event mass first, ties broken by (host, function) — so two
   services fed the same shards in any order inside a step agree on
   every byte of state.

   Ingest goes through [Fdata.scan]: records are folded into the host's
   [Fdata.Acc] as the lexer produces them, and per-shard record lists
   never materialize.  The accumulator knows nothing of the cost model:
   it reports which records opened a new key, and the sketch charges
   those.

   Each host's materialized shard is cached until something changes
   the host: ingest, supersession and eviction mark it dirty, which
   drops the cache.  [take_dirty] hands the marks to the service, which
   rebuilds only those hosts' entries in its fleet view. *)

module Fdata = Bolt_profile.Fdata
module Obs = Bolt_obs.Obs

(* One host's retained state: the provenance of its latest shard and
   that shard's records, summed per function in an [Fdata.Acc].
   [hs_cost] holds the cost-model bytes of each retained function. *)
type host_state = {
  hs_host : string;
  mutable hs_header : Fdata.header;
  mutable hs_lbr : bool;
  mutable hs_fingerprints : Bolt_obj.Fingerprint.t;
  mutable hs_acc : Fdata.Acc.t;
  hs_cost : (string, int ref) Hashtbl.t;
  mutable hs_bytes : int; (* sum of function costs + host base cost *)
  mutable hs_shard : Bolt_fleet.Merge.loaded option;
      (* the materialized shard; [None] once the host is dirty *)
}

type t = {
  topk : int; (* max function entries per host *)
  budget : int; (* global byte budget over all hosts' entries *)
  obs : Obs.t;
  hosts : (string, host_state) Hashtbl.t;
  dirty : (string, unit) Hashtbl.t; (* hosts changed since [take_dirty] *)
  mutable occupancy : int; (* current cost-model bytes *)
  mutable peak : int; (* high-water mark, sampled after each ingest *)
  mutable evictions : int;
  mutable evicted_events : int64; (* saturating mass lost to eviction *)
  mutable shards_in : int;
  mutable records_in : int;
  mutable malformed : int;
}

(* ---- cost model (bytes per retained element) ----
   Fixed constants, not live measurements: the point is a deterministic,
   platform-independent occupancy that moves with what is retained. *)

let host_base = 96
let entry_base = 64
let branch_cost tf = 56 + String.length tf
let range_cost = 40
let sample_cost = 32

let create ?obs ~topk ~budget () =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  {
    topk = max 1 topk;
    budget = max 1 budget;
    obs;
    hosts = Hashtbl.create 64;
    dirty = Hashtbl.create 64;
    occupancy = 0;
    peak = 0;
    evictions = 0;
    evicted_events = 0L;
    shards_in = 0;
    records_in = 0;
    malformed = 0;
  }

let mark_dirty t (hs : host_state) =
  hs.hs_shard <- None;
  Hashtbl.replace t.dirty hs.hs_host ()

let evict t (hs : host_state) func =
  mark_dirty t hs;
  let bytes = !(Hashtbl.find hs.hs_cost func) in
  t.evicted_events <- Fdata.sat_add t.evicted_events (Fdata.Acc.events hs.hs_acc func);
  Fdata.Acc.remove hs.hs_acc func;
  Hashtbl.remove hs.hs_cost func;
  hs.hs_bytes <- hs.hs_bytes - bytes;
  t.occupancy <- t.occupancy - bytes;
  t.evictions <- t.evictions + 1;
  Obs.incr t.obs "service.sketch_evictions"

(* Every retained function of [hs] as an eviction candidate, keyed for
   the deterministic eviction order: least event mass first, then host,
   then function name. *)
let candidates (hs : host_state) acc =
  Hashtbl.fold
    (fun func _ acc ->
      ((Fdata.Acc.events hs.hs_acc func, hs.hs_host, func), hs) :: acc)
    hs.hs_cost acc

(* The eviction order on (events, host, function) keys: [compare]'s
   order, field by field. *)
let compare_candidate ((e1, h1, f1) : int64 * string * string) (e2, h2, f2) =
  let c = Int64.compare e1 e2 in
  if c <> 0 then c
  else
    let c = String.compare h1 h2 in
    if c <> 0 then c else String.compare f1 f2

(* Evict [cands] in eviction order for as long as [cond] holds. *)
let evict_while t cond cands =
  let rec go = function
    | ((_, _, func), hs) :: rest when cond () ->
        evict t hs func;
        go rest
    | _ -> ()
  in
  go (List.sort (fun (k1, _) (k2, _) -> compare_candidate k1 k2) cands)

let enforce_topk t (hs : host_state) =
  let over () = Hashtbl.length hs.hs_cost > t.topk in
  if over () then evict_while t over (candidates hs [])

(* Global budget: evict the fleet-wide smallest entries until occupancy
   falls to a low-water mark (90% of budget), so enforcement runs once
   per handful of shards instead of once per record.  The bound that
   callers observe — occupancy <= budget after every ingest — is exact. *)
let enforce_budget t =
  if t.occupancy > t.budget then begin
    let low_water = t.budget * 9 / 10 in
    evict_while t
      (fun () -> t.occupancy > low_water)
      (Hashtbl.fold (fun _ hs acc -> candidates hs acc) t.hosts [])
  end

(* What one [ingest] call did. *)
type ingested = {
  ig_records : int;
  ig_warnings : int;
}

(* Fold one arriving shard into the sketch.  The newest shard wins per
   host: a host's previous entries are dropped (not counted as
   evictions — supersession is the protocol, not memory pressure). *)
let ingest t ~host (text : string) : ingested =
  let hs =
    match Hashtbl.find_opt t.hosts host with
    | Some hs ->
        (* superseded: reset entries, keep identity *)
        t.occupancy <- t.occupancy - hs.hs_bytes;
        hs.hs_acc <- Fdata.Acc.create ();
        Hashtbl.reset hs.hs_cost;
        hs.hs_bytes <- host_base + String.length host;
        t.occupancy <- t.occupancy + hs.hs_bytes;
        hs
    | None ->
        let hs =
          {
            hs_host = host;
            hs_header = { Fdata.no_header with Fdata.hd_host = host };
            hs_lbr = true;
            hs_fingerprints = [];
            hs_acc = Fdata.Acc.create ();
            hs_cost = Hashtbl.create 64;
            hs_bytes = host_base + String.length host;
            hs_shard = None;
          }
        in
        Hashtbl.add t.hosts host hs;
        t.occupancy <- t.occupancy + hs.hs_bytes;
        hs
  in
  mark_dirty t hs;
  let records = ref 0 in
  (* a new key costs [by] bytes; a function's first key also pays for
     the function's entry *)
  let charge is_new func by =
    incr records;
    if is_new then begin
      let by =
        match Hashtbl.find_opt hs.hs_cost func with
        | Some cost ->
            cost := !cost + by;
            by
        | None ->
            let by = by + entry_base + String.length func in
            Hashtbl.add hs.hs_cost func (ref by);
            by
      in
      hs.hs_bytes <- hs.hs_bytes + by;
      t.occupancy <- t.occupancy + by
    end
  in
  let acc = hs.hs_acc in
  let prof, warnings =
    Fdata.scan
      ~branch:(fun b ->
        charge (Fdata.Acc.add_branch acc b) b.Fdata.br_from_func
          (branch_cost b.Fdata.br_to_func))
      ~range:(fun r -> charge (Fdata.Acc.add_range acc r) r.Fdata.rg_func range_cost)
      ~sample:(fun s ->
        charge (Fdata.Acc.add_sample acc s) s.Fdata.sm_func sample_cost)
      text
  in
  (* provenance from the scan's header view; keep the host's name as the
     service knows it, not the shard's claim *)
  let hd = Option.value ~default:Fdata.no_header prof.Fdata.header in
  hs.hs_header <- { hd with Fdata.hd_host = host };
  hs.hs_lbr <- prof.Fdata.lbr;
  if prof.Fdata.fingerprints <> [] then
    hs.hs_fingerprints <- prof.Fdata.fingerprints;
  enforce_topk t hs;
  enforce_budget t;
  t.peak <- max t.peak t.occupancy;
  t.shards_in <- t.shards_in + 1;
  t.records_in <- t.records_in + !records;
  t.malformed <- t.malformed + List.length warnings;
  Obs.set t.obs "service.sketch_occupancy_bytes" (float_of_int t.occupancy);
  { ig_records = !records; ig_warnings = List.length warnings }

(* ---- reading the sketch back out ---- *)

let hosts t = Hashtbl.length t.hosts

let funcs t =
  Hashtbl.fold (fun _ hs acc -> acc + Hashtbl.length hs.hs_cost) t.hosts 0

let occupancy t = t.occupancy
let peak t = t.peak
let budget t = t.budget
let evictions t = t.evictions
let evicted_events t = t.evicted_events
let shards_in t = t.shards_in
let records_in t = t.records_in
let malformed t = t.malformed

(* Materialize one host's retained state as a canonical profile. *)
let profile_of (hs : host_state) : Fdata.t =
  Fdata.Acc.to_profile ~lbr:hs.hs_lbr ~header:(Some hs.hs_header)
    ~fingerprints:hs.hs_fingerprints hs.hs_acc

(* One host's retained state as a shard, materialized on first use
   after the host last changed. *)
let shard t host : Bolt_fleet.Merge.loaded =
  let hs = Hashtbl.find t.hosts host in
  match hs.hs_shard with
  | Some sh -> sh
  | None ->
      let sh = Bolt_fleet.Merge.shard_of_profile ~name:host (profile_of hs) in
      hs.hs_shard <- Some sh;
      sh

(* The hosts changed since the previous call, sorted; clears the marks. *)
let take_dirty t : string list =
  let hosts = Hashtbl.fold (fun h () acc -> h :: acc) t.dirty [] in
  Hashtbl.reset t.dirty;
  List.sort String.compare hosts

(* Every tracked host, sorted. *)
let host_names t : string list =
  Hashtbl.fold (fun h _ acc -> h :: acc) t.hosts [] |> List.sort String.compare

(* Every host's retained shard, in sorted host order.  Canonical form
   regardless of the order shards arrived in. *)
let to_shards t : Bolt_fleet.Merge.loaded list = List.map (shard t) (host_names t)
