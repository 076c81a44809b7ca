exception Out_of_frames

let chunk_bits = 8
let chunk_size = 1 lsl chunk_bits
let chunks_per_page = Layout.page_size / chunk_size

(* What every chunk nobody has written points at.  No frame ever owns
   it, so nothing writes it, and every domain may share it. *)
let zero_chunk = Bytes.make chunk_size '\000'

(* Chunk [i] holds page bytes [i * chunk_size, (i + 1) * chunk_size).  Bit
   [i] of [owned] says the frame holds the only reference to chunk [i];
   any other chunk (the zero chunk, an image's, or one a copy shares) is
   read-only here and is copied on the first write. *)
type frame = { id : int; chunks : Bytes.t array; mutable owned : int; mutable refcount : int }

type t = {
  mutable free : frame list;
  mutable next_id : int;
  mutable live : int;
  limit_frames : int;
  mutable epoch : int;
}

let create ?(limit_frames = 131072) () =
  { free = []; next_id = 0; live = 0; limit_frames; epoch = 0 }

let id f = f.id
let refcount f = f.refcount

let zero f =
  Array.fill f.chunks 0 chunks_per_page zero_chunk;
  f.owned <- 0

let alloc t =
  match t.free with
  | f :: rest ->
      t.free <- rest;
      t.live <- t.live + 1;
      f.refcount <- 1;
      f
  | [] ->
      if t.live >= t.limit_frames then raise Out_of_frames;
      let chunks = Array.make chunks_per_page zero_chunk in
      let f = { id = t.next_id; chunks; owned = 0; refcount = 1 } in
      t.next_id <- t.next_id + 1;
      t.live <- t.live + 1;
      f

let incref frame = frame.refcount <- frame.refcount + 1

let decref t frame =
  assert (frame.refcount > 0);
  frame.refcount <- frame.refcount - 1;
  if frame.refcount = 0 then begin
    zero frame;
    t.live <- t.live - 1;
    t.free <- frame :: t.free
  end

let live_frames t = t.live
let limit t = t.limit_frames
let epoch t = t.epoch
let bump_epoch t = t.epoch <- t.epoch + 1

(* ------------------------------------------------------------------ *)
(* Bytes                                                               *)
(* ------------------------------------------------------------------ *)

let get_u8 f off =
  Char.code (Bytes.get f.chunks.(off lsr chunk_bits) (off land (chunk_size - 1)))

(* Chunk [i], made the frame's own first if it is not. *)
let writable f i =
  let c = f.chunks.(i) in
  if f.owned land (1 lsl i) <> 0 then c
  else begin
    let c = Bytes.copy c in
    f.chunks.(i) <- c;
    f.owned <- f.owned lor (1 lsl i);
    c
  end

let set_u8 f off v =
  let c = writable f (off lsr chunk_bits) in
  Bytes.set c (off land (chunk_size - 1)) (Char.chr (v land 0xff))

(* A word inside one chunk is one load or store; one that straddles two
   goes byte by byte. *)
let get_u32 f off =
  let co = off land (chunk_size - 1) in
  if co <= chunk_size - 4 then
    Int32.to_int (Bytes.get_int32_le f.chunks.(off lsr chunk_bits) co) land 0xFFFF_FFFF
  else
    get_u8 f off
    lor (get_u8 f (off + 1) lsl 8)
    lor (get_u8 f (off + 2) lsl 16)
    lor (get_u8 f (off + 3) lsl 24)

let set_u32 f off v =
  let co = off land (chunk_size - 1) in
  if co <= chunk_size - 4 then
    Bytes.set_int32_le (writable f (off lsr chunk_bits)) co (Int32.of_int v)
  else
    for k = 0 to 3 do
      set_u8 f (off + k) (v lsr (8 * k))
    done

(* Both blits walk [len] page bytes from [off] one chunk at a time. *)
let blit_to_bytes f off dst dst_off len =
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let co = o land (chunk_size - 1) in
    let n = min (chunk_size - co) (len - !pos) in
    Bytes.blit f.chunks.(o lsr chunk_bits) co dst (dst_off + !pos) n;
    pos := !pos + n
  done

let blit_from_bytes src src_off f off len =
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let co = o land (chunk_size - 1) in
    let n = min (chunk_size - co) (len - !pos) in
    Bytes.blit src (src_off + !pos) (writable f (o lsr chunk_bits)) co n;
    pos := !pos + n
  done

let copy ~src ~dst =
  Array.blit src.chunks 0 dst.chunks 0 chunks_per_page;
  src.owned <- 0;
  dst.owned <- 0

(* ------------------------------------------------------------------ *)
(* Images                                                              *)
(* ------------------------------------------------------------------ *)

(* Chunk [k] holds image bytes [k * chunk_size, (k + 1) * chunk_size),
   zero-filled past the end; an all-zero one is the zero chunk.  No frame
   owns an image's chunks. *)
type image = Bytes.t array

let image_of_bytes b =
  let len = Bytes.length b in
  let chunks = (len + chunk_size - 1) / chunk_size in
  Array.init chunks (fun k ->
      let c = Bytes.make chunk_size '\000' in
      Bytes.blit b (k * chunk_size) c 0 (min chunk_size (len - (k * chunk_size)));
      if Bytes.equal c zero_chunk then zero_chunk else c)

let image_pages image = (Array.length image + chunks_per_page - 1) / chunks_per_page

let read_image image ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "Phys.read_image";
  let b = Bytes.make len '\000' in
  let i = ref 0 in
  while !i < len do
    let k = (pos + !i) / chunk_size and off = (pos + !i) mod chunk_size in
    let n = min (chunk_size - off) (len - !i) in
    if k < Array.length image then Bytes.blit image.(k) off b !i n;
    i := !i + n
  done;
  b

let map_image f image ~page =
  for i = 0 to chunks_per_page - 1 do
    let k = (page * chunks_per_page) + i in
    f.chunks.(i) <- (if k < Array.length image then image.(k) else zero_chunk)
  done;
  f.owned <- 0
