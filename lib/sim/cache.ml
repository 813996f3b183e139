(* Set-associative cache and TLB models with LRU replacement.

   Only hit/miss behaviour is modelled — the timing cost of a miss is
   charged by the machine's cycle model.  The same structure serves as a
   TLB by using page-sized "lines".  The set count is a power of two, so
   a line's set is a mask of its number. *)

type t = {
  sets : int;
  assoc : int;
  line_bits : int;
  set_mask : int; (* sets - 1 *)
  tags : int array; (* sets * assoc, -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

let create ~size ~line ~assoc =
  let line_bits =
    let rec lb n acc = if n <= 1 then acc else lb (n / 2) (acc + 1) in
    lb line 0
  in
  let sets = max 1 (size / (line * assoc)) in
  if sets land (sets - 1) <> 0 then
    invalid_arg (Printf.sprintf "Cache.create: %d sets is not a power of two" sets);
  {
    sets;
    assoc;
    line_bits;
    set_mask = sets - 1;
    tags = Array.make (sets * assoc) (-1);
    stamps = Array.make (sets * assoc) 0;
    tick = 0;
    accesses = 0;
    misses = 0;
  }

(* Returns true on hit.  A miss installs the line in the least recently
   used way (the first of equals). *)
let access c addr =
  c.accesses <- c.accesses + 1;
  c.tick <- c.tick + 1;
  let line = addr lsr c.line_bits in
  let base = (line land c.set_mask) * c.assoc in
  let last = base + c.assoc in
  let tags = c.tags in
  let i = ref base in
  while !i < last && Array.unsafe_get tags !i <> line do
    incr i
  done;
  if !i < last then begin
    Array.unsafe_set c.stamps !i c.tick;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    let stamps = c.stamps in
    let victim = ref base in
    for j = base + 1 to last - 1 do
      if Array.unsafe_get stamps j < Array.unsafe_get stamps !victim then victim := j
    done;
    tags.(!victim) <- line;
    stamps.(!victim) <- c.tick;
    false
  end
