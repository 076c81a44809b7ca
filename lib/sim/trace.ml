type event = { timestamp_us : float; actor : string; label : string }

(* A ring of the newest [count] events starting at [first], held as three
   columns: timestamps unboxed in a float array, actors, and the events
   themselves as the caller's typed values, which [render] turns into
   text only when the trace is read.  The columns grow by doubling until
   they reach [capacity] — most traces stay short, so none pays for the
   full ring up front — and only then wrap. *)
type 'e t = {
  capacity : int;
  render : 'e -> string;
  mutable enabled : bool;
  mutable times : Float.Array.t;
  mutable actors : string array;
  mutable items : 'e array;
  mutable first : int;  (* index of the oldest event *)
  mutable count : int;
}

let create ?(capacity = 256) ?(enabled = true) ~render () =
  {
    capacity;
    render;
    enabled;
    times = Float.Array.create 0;
    actors = [||];
    items = [||];
    first = 0;
    count = 0;
  }

let enable t = t.enabled <- true
let disable t = t.enabled <- false

let emit t ~clock ~actor e =
  if t.enabled && t.capacity > 0 then begin
    let len = Array.length t.items in
    if t.count = len && len < t.capacity then begin
      (* Grow; [first] stays 0 until the ring is full. *)
      let n = min t.capacity (max 16 (2 * len)) in
      let times = Float.Array.create n in
      Float.Array.blit t.times 0 times 0 len;
      let actors = Array.make n actor and items = Array.make n e in
      Array.blit t.actors 0 actors 0 len;
      Array.blit t.items 0 items 0 len;
      t.times <- times;
      t.actors <- actors;
      t.items <- items
    end;
    let i =
      if t.count < Array.length t.items then begin
        t.count <- t.count + 1;
        t.count - 1
      end
      else begin
        (* Full: overwrite the oldest event. *)
        let i = t.first in
        t.first <- (i + 1) mod t.count;
        i
      end
    in
    Float.Array.set t.times i (Clock.now_us clock);
    t.actors.(i) <- actor;
    t.items.(i) <- e
  end

let index t k = (t.first + k) mod Array.length t.items
let values t = List.init t.count (fun k -> t.items.(index t k))

let events t =
  List.init t.count (fun k ->
      let i = index t k in
      {
        timestamp_us = Float.Array.get t.times i;
        actor = t.actors.(i);
        label = t.render t.items.(i);
      })

let labels t = List.map t.render (values t)

let clear t =
  t.times <- Float.Array.create 0;
  t.actors <- [||];
  t.items <- [||];
  t.first <- 0;
  t.count <- 0

let pp ppf t =
  List.iter
    (fun e -> Format.fprintf ppf "[%10.3f us] %-8s %s@\n" e.timestamp_us e.actor e.label)
    (events t)
