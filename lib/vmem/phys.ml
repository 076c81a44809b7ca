exception Out_of_frames

type frame = { id : int; data : Bytes.t; mutable refcount : int }

type t = {
  mutable free : frame list;
  mutable next_id : int;
  mutable live : int;
  limit_frames : int;
  mutable epoch : int;
}

let create ?(limit_frames = 131072) () =
  { free = []; next_id = 0; live = 0; limit_frames; epoch = 0 }

let alloc t =
  match t.free with
  | f :: rest ->
      t.free <- rest;
      t.live <- t.live + 1;
      Bytes.fill f.data 0 (Bytes.length f.data) '\000';
      f.refcount <- 1;
      f
  | [] ->
      if t.live >= t.limit_frames then raise Out_of_frames;
      (* [Bytes.create] may hand back a freed host block, bytes and all. *)
      let f = { id = t.next_id; data = Bytes.make Layout.page_size '\000'; refcount = 1 } in
      t.next_id <- t.next_id + 1;
      t.live <- t.live + 1;
      f

let incref frame = frame.refcount <- frame.refcount + 1

let decref t frame =
  assert (frame.refcount > 0);
  frame.refcount <- frame.refcount - 1;
  if frame.refcount = 0 then begin
    t.live <- t.live - 1;
    t.free <- frame :: t.free
  end

let live_frames t = t.live
let limit t = t.limit_frames
let epoch t = t.epoch
let bump_epoch t = t.epoch <- t.epoch + 1
