(* Pinned reference digests: "<workload> <seed> <hex digest>" per line,
   '#' starts a comment.  A digest is taken from the run of the
   un-rewritten input binary, never from the optimizer's output. *)

type t = ((string * int) * string) list

let load path : t =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; seed; d ] when w <> "" && w.[0] <> '#' ->
               Option.map (fun s -> ((w, s), d)) (int_of_string_opt seed)
           | _ -> None)

let find (t : t) ~workload ~seed = List.assoc_opt (workload, seed) t
