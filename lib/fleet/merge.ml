(* Fleet profile merger — the merge-fdata analog (§7: BOLT in the data
   center consumes samples aggregated across thousands of hosts, not one
   run's profile).

   Semantics: each shard's counts are scaled once by

     scale = header weight x CLI weight override x decay

   with decay = exp(-lambda * age), age measured back from the newest
   shard timestamp; then every scaled record is summed with saturating
   64-bit addition into one [Fdata.Acc] and the result is emitted in
   canonical order.

   Determinism: scaling is per-shard (no cross-shard state beyond the
   newest timestamp, itself a max — order-independent), saturating add of
   non-negative counts is commutative and associative, and the output is
   sorted — so the merged bytes are identical for any shard ordering and
   for every engine below. *)

module Fdata = Bolt_profile.Fdata
module Obs = Bolt_obs.Obs

type loaded = { sh_name : string; sh_prof : Fdata.t }

type options = {
  weights : (string * float) list; (* host -> weight override (multiplies) *)
  decay : float option; (* lambda, per timestamp unit *)
  expect_build_id : string option; (* target revision for staleness checks *)
  jobs : int; (* partitions of [merge_stream_sharded]; no other engine reads it *)
}

let default_options =
  { weights = []; decay = None; expect_build_id = None; jobs = 1 }

let shard_of_profile ~name prof = { sh_name = name; sh_prof = prof }

let load_shard path =
  { sh_name = Filename.basename path; sh_prof = Fdata.load path }

(* One shard the loader refused: which file, and why. *)
type skip = { sk_path : string; sk_reason : string }

let pp_skip ppf s = Fmt.pf ppf "skipped shard %s: %s" s.sk_path s.sk_reason

(* Load a shard set, skipping the unusable ones instead of aborting the
   whole merge (a fleet aggregation must survive one torn file).  A shard
   is skipped when the file is unreadable, or when parsing salvaged
   nothing at all — warnings with zero surviving records means the file
   is not an fdata profile, not a profile with a few bad lines.

   [~strict:true] restores fail-fast: the first unreadable file raises
   [Sys_error], the first malformed record raises [Fdata.Bad_format]. *)
let load_shards ?(strict = false) paths : loaded list * skip list =
  let skips = ref [] in
  let loaded =
    List.filter_map
      (fun path ->
        match Fdata.load_with_warnings ~strict path with
        | prof, warnings ->
            let records =
              List.length prof.Fdata.branches
              + List.length prof.Fdata.ranges
              + List.length prof.Fdata.samples
            in
            if warnings <> [] && records = 0 then begin
              skips :=
                {
                  sk_path = path;
                  sk_reason =
                    Fmt.str "no usable records (%d malformed line%s, first: %a)"
                      (List.length warnings)
                      (if List.length warnings = 1 then "" else "s")
                      Fdata.pp_warning (List.hd warnings);
                }
                :: !skips;
              None
            end
            else Some { sh_name = Filename.basename path; sh_prof = prof }
        | exception Sys_error msg ->
            if strict then raise (Sys_error msg);
            skips := { sk_path = path; sk_reason = msg } :: !skips;
            None)
      paths
  in
  (loaded, List.rev !skips)

let header sh = Option.value ~default:Fdata.no_header sh.sh_prof.Fdata.header

(* Host label used for --weight matching: the header's host when present,
   the shard (file) name otherwise. *)
let host_of sh =
  let h = header sh in
  if h.Fdata.hd_host <> "" then h.Fdata.hd_host else sh.sh_name

let newest_timestamp shards =
  List.fold_left (fun a sh -> max a (header sh).Fdata.hd_timestamp) 0 shards

(* The most common non-empty shard build-id, from a build-id -> shard
   count tally; ties break to the lexicographically smallest so the
   choice never depends on input order.  "" when no shard is stamped. *)
let modal_of_tally (tally : (string, int) Hashtbl.t) =
  Hashtbl.fold
    (fun id n best ->
      match best with
      | _ when id = "" -> best
      | Some (bid, bn) when bn > n || (bn = n && bid <= id) -> best
      | _ -> Some (id, n))
    tally None
  |> function
  | Some (id, _) -> id
  | None -> ""

let modal_build_id shards =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun sh ->
      let id = (header sh).Fdata.hd_build_id in
      Hashtbl.replace tally id (1 + try Hashtbl.find tally id with Not_found -> 0))
    shards;
  modal_of_tally tally

let scale_of opts ~newest sh =
  let h = header sh in
  let override =
    match List.assoc_opt (host_of sh) opts.weights with Some w -> w | None -> 1.0
  in
  let decay =
    match opts.decay with
    | Some lambda when h.Fdata.hd_timestamp > 0 ->
        exp (-.lambda *. float_of_int (newest - h.Fdata.hd_timestamp))
    | _ -> 1.0
  in
  h.Fdata.hd_weight *. override *. decay

(* Provenance of the merged profile: a synthetic "fleet" host stamped
   with the target (or modal) build-id, the newest shard timestamp and
   the saturating event total. *)
let merged_header opts shards =
  let events =
    List.fold_left
      (fun a sh ->
        let h = header sh in
        let ev =
          if h.Fdata.hd_events > 0L then h.Fdata.hd_events
          else sh.sh_prof.Fdata.total_samples
        in
        Fdata.sat_add a ev)
      0L shards
  in
  {
    Fdata.hd_host = "fleet";
    hd_build_id =
      (match opts.expect_build_id with
      | Some id -> id
      | None -> modal_build_id shards);
    hd_timestamp = newest_timestamp shards;
    hd_events = events;
    hd_weight = 1.0;
  }

(* Recover a stale shard against the target revision before merging:
   a shard whose build-id disagrees with [build_id] and that carries its
   own fingerprints is re-keyed through [Stale_match], so its events
   survive the merge instead of polluting it with dead names/offsets.
   Returns the shard as is, and no breakdown, otherwise. *)
let recover_shard ~(fingerprints : Bolt_obj.Fingerprint.t) ~(build_id : string)
    (sh : loaded) : loaded * Bolt_profile.Stale_match.stats option =
  if fingerprints = [] || build_id = "" then (sh, None)
  else
    match
      Bolt_profile.Stale_match.recover_if_stale ~fingerprints ~build_id sh.sh_prof
    with
    | Some (p, st) -> ({ sh with sh_prof = p }, Some st)
    | None -> (sh, None)

(* [recover_shard] over a shard set: the (possibly rewritten) shards
   plus, per recovered shard, the host label and its recovery breakdown
   — the per-host series the fleet health monitor folds over ticks. *)
let recover_stale_each ~fingerprints ~build_id (shards : loaded list) :
    loaded list * (string * Bolt_profile.Stale_match.stats) list =
  let per_shard = ref [] in
  let shards' =
    List.map
      (fun sh ->
        let sh', st = recover_shard ~fingerprints ~build_id sh in
        Option.iter (fun st -> per_shard := (host_of sh, st) :: !per_shard) st;
        sh')
      shards
  in
  (shards', List.rev !per_shard)

(* The aggregate view of [recover_stale_each]: one summed breakdown,
   [None] when nothing needed recovering. *)
let recover_stale ~fingerprints ~build_id (shards : loaded list) :
    loaded list * Bolt_profile.Stale_match.stats option =
  let shards', per_shard = recover_stale_each ~fingerprints ~build_id shards in
  (shards', Bolt_profile.Stale_match.sum_stats (List.map snd per_shard))

(* The merged profile from the summed records: the [merged_header]
   provenance, the target revision's fingerprints carried forward (from
   the lexicographically-first shard that has them, so the choice never
   depends on input order), and the fleet counters. *)
let finish obs opts (shards : loaded list) acc : Fdata.t =
  let mheader = merged_header opts shards in
  let fingerprints =
    List.filter
      (fun sh ->
        (header sh).Fdata.hd_build_id = mheader.Fdata.hd_build_id
        && sh.sh_prof.Fdata.fingerprints <> [])
      shards
    |> List.sort (fun a b -> compare a.sh_name b.sh_name)
    |> function
    | [] -> []
    | sh :: _ -> sh.sh_prof.Fdata.fingerprints
  in
  let merged =
    Fdata.Acc.to_profile
      ~lbr:(List.for_all (fun sh -> sh.sh_prof.Fdata.lbr) shards)
      ~header:(Some mheader) ~fingerprints acc
  in
  Obs.incr obs ~by:(List.length shards) "fleet.shards";
  Obs.incr obs
    ~by:(List.length merged.Fdata.branches)
    "fleet.merged_branch_records";
  merged

let merge ?obs ?(opts = default_options) (shards : loaded list) : Fdata.t =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  Obs.span obs "fleet.merge" (fun () ->
      let newest = newest_timestamp shards in
      let acc = Fdata.Acc.create () in
      List.iter
        (fun sh ->
          Fdata.Acc.add_profile ~scale:(scale_of opts ~newest sh) acc sh.sh_prof)
        shards;
      finish obs opts shards acc)

(* ---- streaming ingest ----

   [merge] above takes shards already parsed into record lists;
   ingesting million-line fleet shards that way spends most of its time
   consing and collecting records that exist only to be summed.
   [merge_stream] folds each record straight into the accumulator as the
   iocore lexer produces it, via [Fdata.scan]:

   - pass 1 lexes every shard with no-op record callbacks, which is how
     the headers, fingerprints and event totals are discovered — scales
     depend on the newest timestamp {e across} shards, so no record can
     be scaled until every header has been seen;
   - pass 2 lexes again, filing each record at its shard's scale.

   The records reach the same [Fdata.Acc] at the same scale as in
   [merge], so the output is byte-identical to [merge] over the same
   shards (the iocore parity suite holds this). *)

(* Pass 1: each shard's name, header, fingerprints and totals. *)
let scan_headers shards =
  List.map
    (fun (name, text) -> { sh_name = name; sh_prof = fst (Fdata.scan text) })
    shards

(* Pass 2 over one shard: every record into [acc_of] its owning
   function, at [scale]. *)
let scan_into acc_of scale text =
  ignore
    (Fdata.scan
       ~branch:(fun b ->
         ignore (Fdata.Acc.add_branch ~scale (acc_of b.Fdata.br_from_func) b))
       ~range:(fun r ->
         ignore (Fdata.Acc.add_range ~scale (acc_of r.Fdata.rg_func) r))
       ~sample:(fun s ->
         ignore (Fdata.Acc.add_sample ~scale (acc_of s.Fdata.sm_func) s))
       text)

let merge_stream ?obs ?(opts = default_options)
    (shards : (string * string) list) : Fdata.t =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  Obs.span obs "fleet.merge" (fun () ->
      let metas = scan_headers shards in
      let newest = newest_timestamp metas in
      let acc = Fdata.Acc.create () in
      List.iter2
        (fun (_, text) meta ->
          scan_into (fun _ -> acc) (scale_of opts ~newest meta) text)
        shards metas;
      finish obs opts metas acc)

(* ---- sharded-by-function-key streaming merge ----

   [merge_stream] with the accumulator split by function-name hash into
   [jobs] partitions: workers lex shards in parallel, each into its own
   row of per-partition accumulators, then each partition's rows are
   absorbed into one (disjoint function sets, so the partitions share
   nothing), and the partitions are absorbed into the result, which
   moves whole functions.  [Hashtbl.hash] on strings is seed-free, so a
   function's partition never varies across runs or domains, and the
   bytes are identical to [merge_stream] for any shard order and any
   [jobs] (the service suite holds this).  No CLI selects it: only the
   benchmark calls it, to measure it against [merge_stream]. *)

let merge_stream_sharded ?obs ?(opts = default_options)
    (shards : (string * string) list) : Fdata.t =
  let jobs = max 1 opts.jobs in
  if jobs = 1 || List.length shards <= 1 then merge_stream ?obs ~opts shards
  else
    let obs = match obs with Some o -> o | None -> Obs.null () in
    Obs.span obs "fleet.merge" (fun () ->
        let metas = scan_headers shards in
        let newest = newest_timestamp metas in
        let accs =
          Array.init jobs (fun _ -> Array.init jobs (fun _ -> Fdata.Acc.create ()))
        in
        let pool = Bolt_core.Pool.create ~jobs () in
        ignore
          (Bolt_core.Pool.run pool
             ~worker:(fun dom ((_, text), meta) ->
               scan_into
                 (fun fn -> accs.(dom).(Hashtbl.hash fn mod jobs))
                 (scale_of opts ~newest meta) text)
             (Array.of_list (List.combine shards metas)));
        ignore
          (Bolt_core.Pool.run pool
             ~worker:(fun _ p ->
               for dom = 1 to jobs - 1 do
                 Fdata.Acc.absorb ~into:accs.(0).(p) accs.(dom).(p)
               done)
             (Array.init jobs Fun.id));
        let acc = accs.(0).(0) in
        for p = 1 to jobs - 1 do
          Fdata.Acc.absorb ~into:acc accs.(0).(p)
        done;
        finish obs opts metas acc)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* File-path convenience entry, on the streaming path: each shard's text
   is read once and lexed twice, never parsed into record lists. *)
let merge_paths ?obs ?opts paths : Fdata.t =
  merge_stream ?obs ?opts
    (List.map (fun p -> (Filename.basename p, read_file p)) paths)
