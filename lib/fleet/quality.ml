(* Merge quality report: how trustworthy is the aggregated fleet profile?

   Three axes, mirroring what a deployment pipeline gates on:

   - coverage: how much of the merged profile's function set each shard
     saw (low coverage = hosts sampled disjoint slices of the binary, the
     merge is gluing together sparse views);
   - agreement/divergence: the fraction of merged branch records observed
     by more than one shard (high divergence = per-host behaviour skew,
     or clock/revision drift);
   - staleness: the fraction of shards — and of raw events — collected
     against a binary revision other than the target build-id (§6/§7:
     merged fleet profiles rarely match the binary exactly). *)

module Fdata = Bolt_profile.Fdata
module Json = Bolt_obs.Json
module Obs = Bolt_obs.Obs

type report = {
  q_shards : int;
  q_hosts : string list;
  q_events : int64; (* saturating total of per-shard event counts *)
  q_functions : int; (* functions in the merged profile *)
  q_coverage_pct : float; (* mean per-shard coverage of merged functions *)
  q_agreement_pct : float; (* merged branch keys seen by >= 2 shards *)
  q_divergence_pct : float; (* merged branch keys seen by exactly 1 shard *)
  q_expected_build_id : string; (* target revision ("" = none known) *)
  q_build_ids : (string * int) list; (* build-id -> shard count, sorted *)
  q_stale_shards : int; (* shards on a revision other than the target *)
  q_unstamped_shards : int; (* shards with no build-id at all *)
  q_staleness_pct : float; (* share of events from stale shards *)
  q_recovery : Bolt_profile.Stale_match.stats option;
      (* aggregate stale-shard recovery breakdown (functions matched
         exact/fuzzy/inferred/dropped); None when no shard was recovered *)
}

let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let shard_events (sh : Merge.loaded) =
  let h = Merge.header sh in
  if h.Fdata.hd_events > 0L then h.Fdata.hd_events
  else sh.sh_prof.Fdata.total_samples

(* ---- the fleet view ----

   What the report reads of a shard set, kept as counts that take a
   shard change as a delta: the service applies only the hosts that
   changed in a step, and [assess] builds the same view from its list
   in one go, so both read one code path.

   The report reads no record counts, only key sets and headers: which
   functions and branch keys each shard has, its build-id, timestamp
   and event total.  Two sides are tracked.  The {e retained} side is
   the shards as collected: their branch-key observers, the coverage
   hits of each, the build-id tally.  The {e merged} side is whatever
   the merged profile folds: a refcount per function and per branch key,
   so a function or key is in the merge while any shard holds it.  That
   is exactly the merged profile's function and key set, at any scale:
   [Merge.merge] files every record, however small its scaled count. *)

type key = string * int * string * int (* from_func, from_off, to_func, to_off *)

(* One shard as the report sees it: distinct functions and branch keys,
   each array sorted and duplicate-free. *)
type summary = {
  su_host : string; (* [Merge.host_of] *)
  su_header : Fdata.header;
  su_events : int64; (* [shard_events] *)
  su_funcs : string array;
  su_keys : key array;
}

let compare_key ((f1, o1, t1, p1) : key) ((f2, o2, t2, p2) : key) =
  let c = String.compare f1 f2 in
  if c <> 0 then c
  else
    let c = Int.compare o1 o2 in
    if c <> 0 then c
    else
      let c = String.compare t1 t2 in
      if c <> 0 then c else Int.compare p1 p2

(* Sort and deduplicate, skipping the sort for an already strictly
   increasing array (a canonical profile's keys are). *)
let sorted_distinct cmp (a : 'a array) : 'a array =
  let n = Array.length a in
  let rec increasing i = i >= n || (cmp a.(i - 1) a.(i) < 0 && increasing (i + 1)) in
  if increasing 1 then a
  else begin
    let a = Array.copy a in
    Array.stable_sort cmp a;
    let out = ref [] in
    Array.iteri (fun i x -> if i = 0 || cmp a.(i - 1) x <> 0 then out := x :: !out) a;
    Array.of_list (List.rev !out)
  end

let summarize (sh : Merge.loaded) : summary =
  let p = sh.Merge.sh_prof in
  let funcs = ref [] in
  let note f =
    match !funcs with g :: _ when String.equal g f -> () | _ -> funcs := f :: !funcs
  in
  List.iter (fun (b : Fdata.branch) -> note b.br_from_func) p.Fdata.branches;
  List.iter (fun (r : Fdata.range) -> note r.rg_func) p.Fdata.ranges;
  List.iter (fun (s : Fdata.sample) -> note s.sm_func) p.Fdata.samples;
  {
    su_host = Merge.host_of sh;
    su_header = Merge.header sh;
    su_events = shard_events sh;
    su_funcs = Array.of_list (List.sort_uniq String.compare !funcs);
    su_keys =
      sorted_distinct compare_key
        (Array.of_list
           (List.map
              (fun (b : Fdata.branch) ->
                (b.br_from_func, b.br_from_off, b.br_to_func, b.br_to_off))
              p.Fdata.branches));
  }

(* The summary of a shard with no records: where a new host starts. *)
let no_records =
  {
    su_host = "";
    su_header = Fdata.no_header;
    su_events = 0L;
    su_funcs = [||];
    su_keys = [||];
  }

(* A retained shard in the view: its summary and how many of its
   functions the merged side holds. *)
type slot = { mutable sl_sum : summary; mutable sl_hits : int }

type key_count = { mutable k_observers : int; mutable k_refs : int }
type func_count = { mutable f_refs : int; mutable f_slots : slot list }

type view = {
  v_keys : (key, key_count) Hashtbl.t;
  v_funcs : (string, func_count) Hashtbl.t;
  mutable v_merged_keys : int; (* keys with k_refs > 0 *)
  mutable v_merged_funcs : int; (* functions with f_refs > 0 *)
  mutable v_shared : int; (* merged keys with >= 2 retained observers *)
  v_build_ids : (string, int) Hashtbl.t; (* retained shards per build-id *)
}

let create_view () =
  {
    v_keys = Hashtbl.create 4096;
    v_funcs = Hashtbl.create 1024;
    v_merged_keys = 0;
    v_merged_funcs = 0;
    v_shared = 0;
    v_build_ids = Hashtbl.create 8;
  }

(* Walk two sorted distinct arrays: [gone] gets what only [a] holds,
   [came] what only [b] holds. *)
let diff cmp a b ~gone ~came =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i < na && j < nb then begin
      let c = cmp a.(i) b.(j) in
      if c < 0 then (gone a.(i); go (i + 1) j)
      else if c > 0 then (came b.(j); go i (j + 1))
      else go (i + 1) (j + 1)
    end
    else if i < na then (gone a.(i); go (i + 1) j)
    else if j < nb then (came b.(j); go i (j + 1))
  in
  go 0 0

(* Adjust one key's counts, keeping [v_shared] and [v_merged_keys]. *)
let bump_key v k ~observers ~refs =
  let kc =
    match Hashtbl.find_opt v.v_keys k with
    | Some kc -> kc
    | None ->
        let kc = { k_observers = 0; k_refs = 0 } in
        Hashtbl.add v.v_keys k kc;
        kc
  in
  let shared kc = kc.k_refs > 0 && kc.k_observers >= 2 in
  let was_shared = shared kc and was_merged = kc.k_refs > 0 in
  kc.k_observers <- kc.k_observers + observers;
  kc.k_refs <- kc.k_refs + refs;
  if was_shared <> shared kc then
    v.v_shared <- (v.v_shared + if was_shared then -1 else 1);
  if was_merged <> (kc.k_refs > 0) then
    v.v_merged_keys <- (v.v_merged_keys + if was_merged then -1 else 1);
  if kc.k_observers = 0 && kc.k_refs = 0 then Hashtbl.remove v.v_keys k

let func_count v f =
  match Hashtbl.find_opt v.v_funcs f with
  | Some fc -> fc
  | None ->
      let fc = { f_refs = 0; f_slots = [] } in
      Hashtbl.add v.v_funcs f fc;
      fc

let drop_if_unused v f fc =
  if fc.f_refs = 0 && fc.f_slots = [] then Hashtbl.remove v.v_funcs f

(* A function entering or leaving the merged side moves the coverage
   hits of every retained shard that holds it. *)
let bump_func_refs v f d =
  let fc = func_count v f in
  let was = fc.f_refs > 0 in
  fc.f_refs <- fc.f_refs + d;
  if was <> (fc.f_refs > 0) then begin
    let hit = if was then -1 else 1 in
    v.v_merged_funcs <- v.v_merged_funcs + hit;
    List.iter (fun sl -> sl.sl_hits <- sl.sl_hits + hit) fc.f_slots
  end;
  drop_if_unused v f fc

let bump_tally tbl id d =
  let n = d + Option.value ~default:0 (Hashtbl.find_opt tbl id) in
  if n = 0 then Hashtbl.remove tbl id else Hashtbl.replace tbl id n

(* Replace what [sl] retains with [su]. *)
let set_retained v (sl : slot) (su : summary) =
  let old = sl.sl_sum in
  diff String.compare old.su_funcs su.su_funcs
    ~gone:(fun f ->
      let fc = func_count v f in
      fc.f_slots <- List.filter (fun s -> s != sl) fc.f_slots;
      if fc.f_refs > 0 then sl.sl_hits <- sl.sl_hits - 1;
      drop_if_unused v f fc)
    ~came:(fun f ->
      let fc = func_count v f in
      fc.f_slots <- sl :: fc.f_slots;
      if fc.f_refs > 0 then sl.sl_hits <- sl.sl_hits + 1);
  diff compare_key old.su_keys su.su_keys
    ~gone:(fun k -> bump_key v k ~observers:(-1) ~refs:0)
    ~came:(fun k -> bump_key v k ~observers:1 ~refs:0);
  if old != no_records then bump_tally v.v_build_ids old.su_header.Fdata.hd_build_id (-1);
  bump_tally v.v_build_ids su.su_header.Fdata.hd_build_id 1;
  sl.sl_sum <- su

(* A slot retaining nothing yet. *)
let new_slot () = { sl_sum = no_records; sl_hits = 0 }

let add_retained v (su : summary) : slot =
  let sl = new_slot () in
  set_retained v sl su;
  sl

(* Replace one shard's contribution to the merged side, [before] (or
   [no_records]) by [after]. *)
let set_merged v ~(before : summary) ~(after : summary) =
  diff String.compare before.su_funcs after.su_funcs
    ~gone:(fun f -> bump_func_refs v f (-1))
    ~came:(fun f -> bump_func_refs v f 1);
  diff compare_key before.su_keys after.su_keys
    ~gone:(fun k -> bump_key v k ~observers:0 ~refs:(-1))
    ~came:(fun k -> bump_key v k ~observers:0 ~refs:1)

(* Coverage of one retained shard: its share of the merged functions. *)
let coverage_pct (v : view) (sl : slot) = pct sl.sl_hits v.v_merged_funcs

(* The report over the retained shards [slots], in the order given:
   every float is summed per shard in that order. *)
let report (v : view) ~expected ?recovery (slots : slot list) : report =
  let coverage = ref 0.0 and total_events = ref 0L and stale_events = ref 0L in
  List.iter
    (fun sl ->
      let su = sl.sl_sum in
      coverage := !coverage +. coverage_pct v sl;
      total_events := Fdata.sat_add !total_events su.su_events;
      let id = su.su_header.Fdata.hd_build_id in
      if expected <> "" && id <> "" && id <> expected then
        stale_events := Fdata.sat_add !stale_events su.su_events)
    slots;
  let nshards = List.length slots in
  let count id = Option.value ~default:0 (Hashtbl.find_opt v.v_build_ids id) in
  let agreement_pct = pct v.v_shared v.v_merged_keys in
  {
    q_shards = nshards;
    q_hosts = List.map (fun sl -> sl.sl_sum.su_host) slots |> List.sort_uniq compare;
    q_events = !total_events;
    q_functions = v.v_merged_funcs;
    q_coverage_pct =
      (if nshards = 0 || v.v_merged_funcs = 0 then 0.0
       else !coverage /. float_of_int nshards);
    q_agreement_pct = agreement_pct;
    q_divergence_pct = (if v.v_merged_keys = 0 then 0.0 else 100.0 -. agreement_pct);
    q_expected_build_id = expected;
    q_build_ids =
      Hashtbl.fold
        (fun id n acc -> ((if id = "" then "<unstamped>" else id), n) :: acc)
        v.v_build_ids []
      |> List.sort compare;
    q_stale_shards =
      (if expected = "" then 0
       else
         Hashtbl.fold
           (fun id n acc -> if id <> "" && id <> expected then acc + n else acc)
           v.v_build_ids 0);
    q_unstamped_shards = count "";
    q_staleness_pct =
      (if !total_events = 0L then 0.0
       else 100.0 *. Int64.to_float !stale_events /. Int64.to_float !total_events);
    q_recovery = recovery;
  }

(* The view of a shard list against its merged profile (canonical, as
   [Merge.merge] emits it): the shards on the retained side, the merged
   profile as the one member of the merged side.  Returns the slots in
   list order. *)
let view_of_shards (shards : Merge.loaded list) ~(merged : Fdata.t) =
  let v = create_view () in
  let slots = List.map (fun sh -> add_retained v (summarize sh)) shards in
  set_merged v ~before:no_records
    ~after:(summarize (Merge.shard_of_profile ~name:"" merged));
  (v, slots)

let assess ?expect_build_id ?recovery (shards : Merge.loaded list)
    ~(merged : Fdata.t) : report =
  let v, slots = view_of_shards shards ~merged in
  let expected =
    match expect_build_id with
    | Some id -> id
    | None -> Merge.modal_of_tally v.v_build_ids
  in
  report v ~expected ?recovery slots

(* Publish the report through the metrics registry, so it lands in the
   run manifest's "metrics" object alongside everything else. *)
let to_obs (obs : Obs.t) (r : report) =
  Obs.incr obs ~by:r.q_shards "fleet.quality.shards";
  Obs.incr obs ~by:r.q_stale_shards "fleet.quality.stale_shards";
  Obs.incr obs ~by:r.q_unstamped_shards "fleet.quality.unstamped_shards";
  Obs.incr obs ~by:r.q_functions "fleet.quality.functions";
  Obs.set obs "fleet.quality.coverage_pct" r.q_coverage_pct;
  Obs.set obs "fleet.quality.agreement_pct" r.q_agreement_pct;
  Obs.set obs "fleet.quality.divergence_pct" r.q_divergence_pct;
  Obs.set obs "fleet.quality.staleness_pct" r.q_staleness_pct;
  match r.q_recovery with
  | None -> ()
  | Some st ->
      Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_exact
        "fleet.quality.recovery.exact";
      Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_fuzzy
        "fleet.quality.recovery.fuzzy";
      Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_inferred
        "fleet.quality.recovery.inferred";
      Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_dropped
        "fleet.quality.recovery.dropped";
      Obs.set obs "fleet.quality.recovery.rate"
        (Bolt_profile.Stale_match.recovery_rate st)

(* A structured manifest section ("fleet") for bmerge --trace-out. *)
let manifest_section (r : report) : string * Json.t =
  ( "fleet",
    Json.Obj
      [
        ("shards", Json.Int r.q_shards);
        ("hosts", Json.List (List.map (fun h -> Json.String h) r.q_hosts));
        ("events", Json.Int (Fdata.clamp_int r.q_events));
        ("functions", Json.Int r.q_functions);
        ("coverage_pct", Json.Float r.q_coverage_pct);
        ("agreement_pct", Json.Float r.q_agreement_pct);
        ("divergence_pct", Json.Float r.q_divergence_pct);
        ("expected_build_id", Json.String r.q_expected_build_id);
        ( "build_ids",
          Json.Obj (List.map (fun (id, n) -> (id, Json.Int n)) r.q_build_ids) );
        ("stale_shards", Json.Int r.q_stale_shards);
        ("unstamped_shards", Json.Int r.q_unstamped_shards);
        ("staleness_pct", Json.Float r.q_staleness_pct);
        ( "recovery",
          match r.q_recovery with
          | None -> Json.Null
          | Some st ->
              Json.Obj
                [
                  ("funcs", Json.Int st.Bolt_profile.Stale_match.st_funcs);
                  ("exact", Json.Int st.Bolt_profile.Stale_match.st_exact);
                  ("fuzzy", Json.Int st.Bolt_profile.Stale_match.st_fuzzy);
                  ("inferred", Json.Int st.Bolt_profile.Stale_match.st_inferred);
                  ("dropped", Json.Int st.Bolt_profile.Stale_match.st_dropped);
                  ( "records_in",
                    Json.Int st.Bolt_profile.Stale_match.st_records_in );
                  ( "records_kept",
                    Json.Int st.Bolt_profile.Stale_match.st_records_kept );
                  ( "rate",
                    Json.Float (Bolt_profile.Stale_match.recovery_rate st) );
                ] );
      ] )

let pp ppf (r : report) =
  Fmt.pf ppf "fleet merge quality:@.";
  Fmt.pf ppf "  shards          %d (%d hosts)@." r.q_shards (List.length r.q_hosts);
  Fmt.pf ppf "  events          %Ld@." r.q_events;
  Fmt.pf ppf "  functions       %d@." r.q_functions;
  Fmt.pf ppf "  coverage        %.1f%% (mean shard coverage of merged functions)@."
    r.q_coverage_pct;
  Fmt.pf ppf "  agreement       %.1f%% of branch records seen by >1 shard@."
    r.q_agreement_pct;
  Fmt.pf ppf "  divergence      %.1f%%@." r.q_divergence_pct;
  Fmt.pf ppf "  target build    %s@."
    (if r.q_expected_build_id = "" then "<none>" else r.q_expected_build_id);
  List.iter
    (fun (id, n) -> Fmt.pf ppf "    %-34s %d shard%s@." id n (if n = 1 then "" else "s"))
    r.q_build_ids;
  Fmt.pf ppf "  stale shards    %d (%.1f%% of events)@." r.q_stale_shards
    r.q_staleness_pct;
  if r.q_unstamped_shards > 0 then
    Fmt.pf ppf "  unstamped       %d@." r.q_unstamped_shards;
  match r.q_recovery with
  | None -> ()
  | Some st ->
      Fmt.pf ppf "  stale recovery  %a (rate %.0f%%)@."
        Bolt_profile.Stale_match.pp_stats st
        (100.0 *. Bolt_profile.Stale_match.recovery_rate st)
