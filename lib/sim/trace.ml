type event = { timestamp_us : float; actor : string; label : string }

(* A ring of the newest [count] events starting at [first].  [buf] grows
   by doubling until it reaches [capacity] — most traces stay short, so
   none pays for the full ring up front — and only then wraps. *)
type t = {
  capacity : int;
  mutable enabled : bool;
  mutable buf : event array;
  mutable first : int;  (* index of the oldest event *)
  mutable count : int;
}

let create ?(capacity = 4096) ?(enabled = true) () =
  { capacity; enabled; buf = [||]; first = 0; count = 0 }

let enable t = t.enabled <- true
let disable t = t.enabled <- false

let emit t ~clock ~actor label =
  if t.enabled && t.capacity > 0 then begin
    let e = { timestamp_us = Clock.now_us clock; actor; label } in
    let len = Array.length t.buf in
    if t.count = len && len < t.capacity then begin
      (* Grow; [first] stays 0 until the ring is full. *)
      let buf = Array.make (min t.capacity (max 16 (2 * len))) e in
      Array.blit t.buf 0 buf 0 len;
      t.buf <- buf
    end;
    if t.count < Array.length t.buf then begin
      t.buf.(t.count) <- e;
      t.count <- t.count + 1
    end
    else begin
      (* Full: overwrite the oldest event. *)
      t.buf.(t.first) <- e;
      t.first <- (t.first + 1) mod t.count
    end
  end

let emitf t ~clock ~actor fmt = Format.kasprintf (fun s -> emit t ~clock ~actor s) fmt

let events t =
  let len = Array.length t.buf in
  List.init t.count (fun i -> t.buf.((t.first + i) mod len))

let labels t = List.map (fun e -> e.label) (events t)

let clear t =
  t.buf <- [||];
  t.first <- 0;
  t.count <- 0

let pp ppf t =
  List.iter
    (fun e -> Format.fprintf ppf "[%10.3f us] %-8s %s@\n" e.timestamp_us e.actor e.label)
    (events t)
