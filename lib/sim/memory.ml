(* Paged memory for the simulator.

   Pages are allocated lazily; words are little-endian.  Every address
   [Layout] hands out (text, rodata, data, the BOLT text segment, the
   heap and the stack) lies below [Layout.stack_top], so those pages live
   in a flat table indexed by page number: one array load per access.
   Any other address (above the stack, or negative) falls back to a
   sparse hash table, so the address space stays the whole int range.

   The aligned 8-byte fast path covers almost all traffic (stack and
   array cells are 8-aligned); the byte loop handles the rest, including
   cross-page accesses. *)

let page_bits = 12
let page_size = 1 lsl page_bits

(* Pages of the flat table: [0, stack_top) rounded up to whole pages. *)
let flat_pages = (Bolt_obj.Layout.stack_top + page_size - 1) lsr page_bits

(* Placeholder for a flat slot whose page is not allocated yet. *)
let unmapped = Bytes.empty

type t = {
  flat : Bytes.t array; (* page number -> page, [unmapped] until touched *)
  sparse : (int, Bytes.t) Hashtbl.t; (* pages outside the flat table *)
}

let create () = { flat = Array.make flat_pages unmapped; sparse = Hashtbl.create 16 }

let sparse_page m key =
  match Hashtbl.find_opt m.sparse key with
  | Some p -> p
  | None ->
      let p = Bytes.make page_size '\x00' in
      Hashtbl.add m.sparse key p;
      p

(* The page holding [a], allocated on first touch.  [lsr] maps a negative
   address to a key beyond the flat table. *)
let page m a =
  let key = a lsr page_bits in
  if key < flat_pages then begin
    let p = Array.unsafe_get m.flat key in
    if p != unmapped then p
    else begin
      let p = Bytes.make page_size '\x00' in
      Array.unsafe_set m.flat key p;
      p
    end
  end
  else sparse_page m key

let read8 m a = Char.code (Bytes.unsafe_get (page m a) (a land (page_size - 1)))

let write8 m a v =
  Bytes.unsafe_set (page m a) (a land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

let read64 m a =
  let off = a land (page_size - 1) in
  if a land 7 = 0 && off <= page_size - 8 then
    Int64.to_int (Bytes.get_int64_le (page m a) off)
  else begin
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor read8 m (a + i)
    done;
    !v
  end

let write64 m a v =
  let off = a land (page_size - 1) in
  if a land 7 = 0 && off <= page_size - 8 then
    Bytes.set_int64_le (page m a) off (Int64.of_int v)
  else
    for i = 0 to 7 do
      write8 m (a + i) (v asr (8 * i))
    done

(* Copy [b] to [addr], one blit per page it covers. *)
let load_bytes m addr (b : Bytes.t) =
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    let a = addr + !pos in
    let off = a land (page_size - 1) in
    let len = min (n - !pos) (page_size - off) in
    Bytes.blit b !pos (page m a) off len;
    pos := !pos + len
  done
