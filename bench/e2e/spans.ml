(* In-memory spans for the traced run, written out when the run ends.

   A span has a name, the op id shared by every span of one request (-1
   for generator-level spans such as scheduler steps), a parent span (-1
   for roots), a track (the session, or 0 for the generator), simulated start
   and end, and wall start and end.  Spans only read clocks; recording
   one never charges the simulated CPU.

   Storage is columnar and capped: spans are kept while fewer than
   [max_ops] ops have been released and fewer than [max_spans] recorded,
   so memory and the written trace stay bounded on long runs.
   Aggregates and the Chrome trace cover the kept spans. *)

let max_ops = 20_000
let max_spans = 250_000

type t = {
  mutable len : int;
  mutable name : int array;
  mutable op : int array;
  mutable parent : int array;
  mutable track : int array;
  mutable sim0 : float array;
  mutable sim1 : float array;
  mutable wall0 : float array;
  mutable wall1 : float array;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
}

let create () =
  {
    len = 0;
    name = [||];
    op = [||];
    parent = [||];
    track = [||];
    sim0 = [||];
    sim1 = [||];
    wall0 = [||];
    wall1 = [||];
    names = Hashtbl.create 16;
    name_of = [||];
  }

let wall_ns () = Int64.to_float (Monotonic_clock.now ())

let name_id t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.replace t.names s i;
      t.name_of <- Array.append t.name_of [| s |];
      i

let grow t =
  let cap = max 1024 (2 * t.len) in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  t.name <- ints t.name;
  t.op <- ints t.op;
  t.parent <- ints t.parent;
  t.track <- ints t.track;
  t.sim0 <- floats t.sim0;
  t.sim1 <- floats t.sim1;
  t.wall0 <- floats t.wall0;
  t.wall1 <- floats t.wall1

(* Whether spans for [op] are still being kept. *)
let keeps t ~op = op < max_ops && t.len < max_spans

(* Open a span; returns its id, or -1 when it is not kept. *)
let start t ~name ~op ~parent ~track ~sim_us =
  if not (keeps t ~op) then -1
  else begin
    if t.len = Array.length t.name then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- name_id t name;
    t.op.(i) <- op;
    t.parent.(i) <- parent;
    t.track.(i) <- track;
    t.sim0.(i) <- sim_us;
    t.sim1.(i) <- sim_us;
    let w = wall_ns () in
    t.wall0.(i) <- w;
    t.wall1.(i) <- w;
    i
  end

let finish t id ~sim_us =
  if id >= 0 then begin
    t.sim1.(id) <- sim_us;
    t.wall1.(id) <- wall_ns ()
  end

let with_span t ~name ~op ~parent ~track ~now f =
  let id = start t ~name ~op ~parent ~track ~sim_us:(now ()) in
  Fun.protect ~finally:(fun () -> finish t id ~sim_us:(now ())) f

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

type aggregate = {
  a_name : string;
  a_count : int;
  a_sim_p50_us : float;
  a_sim_total_us : float;
  a_sim_self_us : float;  (** duration minus the part its children cover *)
  a_wall_p50_ns : float;
  a_wall_total_ns : float;
}

let percentile xs p =
  if Array.length xs = 0 then 0.0 else Smod_util.Stats.percentile xs p

(* Children of one parent never overlap (a session runs one stub entry
   point at a time), so their summed duration is the covered part. *)
let aggregates t =
  let child_sim = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child_sim.(p) <- child_sim.(p) +. (t.sim1.(i) -. t.sim0.(i))
  done;
  let by_name = Array.make (Array.length t.name_of) [] in
  for i = t.len - 1 downto 0 do
    by_name.(t.name.(i)) <- i :: by_name.(t.name.(i))
  done;
  Array.to_list
    (Array.mapi
       (fun id name ->
         let idx = Array.of_list by_name.(id) in
         let sims = Array.map (fun i -> t.sim1.(i) -. t.sim0.(i)) idx in
         let walls = Array.map (fun i -> t.wall1.(i) -. t.wall0.(i)) idx in
         let self =
           Array.fold_left
             (fun acc i -> acc +. Float.max 0.0 (t.sim1.(i) -. t.sim0.(i) -. child_sim.(i)))
             0.0 idx
         in
         {
           a_name = name;
           a_count = Array.length idx;
           a_sim_p50_us = percentile sims 50.0;
           a_sim_total_us = Array.fold_left ( +. ) 0.0 sims;
           a_sim_self_us = self;
           a_wall_p50_ns = percentile walls 50.0;
           a_wall_total_ns = Array.fold_left ( +. ) 0.0 walls;
         })
       t.name_of)

let find_aggregate aggs name = List.find_opt (fun a -> a.a_name = name) aggs

let aggregate_json a =
  let open Smod_util.Json in
  Obj
    [
      ("name", String a.a_name);
      ("count", Int a.a_count);
      ("sim_p50_us", Float a.a_sim_p50_us);
      ("sim_total_us", Float a.a_sim_total_us);
      ("sim_self_us", Float a.a_sim_self_us);
      ("wall_p50_ns", Float a.a_wall_p50_ns);
      ("wall_total_ns", Float a.a_wall_total_ns);
    ]

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

(* Complete ("X") events on the simulated timeline, one track per
   session; wall time and the span links ride in [args].  Streamed, so a
   large trace never exists as one string. *)
let write_chrome t ~path ~meta =
  let oc = open_out path in
  let t0 = if t.len = 0 then 0.0 else t.wall0.(0) in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for i = 0 to t.len - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.4f,\"dur\":%.4f,\
       \"args\":{\"id\":%d,\"op\":%d,\"parent\":%d,\"wall_start_ns\":%.0f,\"wall_ns\":%.0f}}"
      t.name_of.(t.name.(i))
      t.track.(i) t.sim0.(i)
      (t.sim1.(i) -. t.sim0.(i))
      i t.op.(i) t.parent.(i)
      (t.wall0.(i) -. t0)
      (t.wall1.(i) -. t.wall0.(i))
  done;
  let other =
    Smod_util.Json.Obj
      (meta @ [ ("self_time", Smod_util.Json.Arr (List.map aggregate_json (aggregates t))) ])
  in
  Printf.fprintf oc "\n],\"otherData\":%s}\n" (Smod_util.Json.to_string ~minify:true other);
  close_out oc
