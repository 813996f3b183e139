(* Clocks, order statistics and the metric sheet every workload fills.

   A workload records named metrics into a sheet; [emit] prints them as
   an aligned table followed by the single JSON result line. *)

let now = Unix.gettimeofday

(* Wall time of [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile of a non-empty list, [p] in (0, 100]. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest whole percentile (50..99) with at least ten samples
   beyond it, as (percentile, value); [None] below twenty samples. *)
let tail xs =
  let n = List.length xs in
  let beyond p = n - int_of_float (Float.ceil (float_of_int p /. 100.0 *. float_of_int n)) in
  let rec go p =
    if p < 50 then None
    else if beyond p >= 10 then Some (p, percentile (float_of_int p) xs)
    else go (p - 1)
  in
  go 99

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let ratio num den = if den > 0.0 then num /. den else 0.0

let count_lines text =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text

(* ---- the metric sheet ---- *)

type sheet = {
  mutable metrics : (string * float * string) list; (* newest first *)
  mutable notes : string list; (* newest first *)
  mutable failures : string list; (* failed checks, newest first *)
}

let sheet () = { metrics = []; notes = []; failures = [] }
let put s name unit v = s.metrics <- (name, v, unit) :: s.metrics
let note s fmt = Printf.ksprintf (fun l -> s.notes <- l :: s.notes) fmt

(* A figure shown in the table but not part of the result object. *)
let show s name unit v = note s "  %-36s %18.6f %s" name v unit

(* Record a correctness check; a failed one fails every op of the run. *)
let check s what ok = if not ok then s.failures <- what :: s.failures

(* JSON numbers: full precision, never NaN or infinite. *)
let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_str s = "\"" ^ String.escaped s ^ "\""

(* Print the human-readable table and then, as the last line, the result
   object restricted to [names] (in that order). *)
let emit s ~names ~attempted ~failed =
  List.iter print_endline (List.rev s.notes);
  List.iter (fun f -> Printf.printf "FAILED CHECK: %s\n" f) (List.rev s.failures);
  List.iter
    (fun n ->
      List.iter (fun (m, v, u) -> if m = n then Printf.printf "  %-36s %18.6f %s\n" m v u) s.metrics)
    names;
  let metric n =
    match List.find_opt (fun (m, _, _) -> m = n) s.metrics with
    | Some (_, v, u) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v)
          (json_str u)
    | None -> invalid_arg ("Measure.emit: metric not recorded: " ^ n)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (s.failures = []) attempted failed
    (String.concat ", " (List.map metric names))
