(* Compare result files of a parent (base) and a change (head).

   For every (workload, end-to-end metric) it prints both sides' medians
   and quartiles, the share of pairs the head wins, and a verdict:

   - better: the head wins at least 90% of all pairs (ties count for
     neither side) and the medians differ by more than the base's own
     quartile spread;
   - unresolved: otherwise, when either side's spread is wider than the
     metric's bound, unless every head run reads better than every base
     run;
   - worse: otherwise, when the head median is worse than the base
     median by more than the bound;
   - same: everything else.

   Bounds and directions come from BENCHMARK.json.  Pairs are taken in
   file order (base i against head i), so runs should alternate sides.
   Results with different seeds or cost-model digests are refused: a
   constant edit must not pass as a speed-up.  Any failed or incorrect op
   on the head side is worse (the bound on failures is +0). *)

module Json = Smod_util.Json

type spec = { name : string; better_higher : bool; bound : float }

exception Refused of string

let read_json path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

let load_specs path =
  let doc = read_json path in
  List.map
    (fun m ->
      {
        name = Json.get_string (Json.member_exn "name" m);
        better_higher =
          (match Json.get_string (Json.member_exn "better" m) with
          | "higher" -> true
          | "lower" -> false
          | b -> raise (Refused (Printf.sprintf "%s: bad \"better\" %S" path b)));
        bound = Json.get_float (Json.member_exn "bound" m);
      })
    (Json.to_list (Json.member_exn "end_to_end" doc))

type side_run = {
  file : string;
  seed : int;
  digest : string;
  workloads : (string * Json.t) list;
}

let load_run path =
  let doc = read_json path in
  if Json.member "schema" doc <> Some (Json.String Result_doc.schema) then
    raise (Refused (path ^ ": not a " ^ Result_doc.schema ^ " document"));
  let meta = Json.member_exn "meta" doc in
  {
    file = path;
    seed = Json.get_int (Json.member_exn "seed" meta);
    digest = Json.get_string (Json.member_exn "cost_model_digest" meta);
    workloads =
      List.map
        (fun w -> (Json.get_string (Json.member_exn "name" w), w))
        (Json.to_list (Json.member_exn "workloads" doc));
  }

let metric_value w name =
  match Json.member "metrics" w with
  | None -> None
  | Some ms -> (
      match Json.member name ms with
      | Some m -> (
          match Json.member_exn "value" m with
          | Json.Null -> None
          | v -> Some (Json.get_float v))
      | None -> None)

(* Python's statistics.quantiles(xs, n=4) (its default "exclusive"
   method), so spreads read the same here as in a script using it. *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type row = {
  workload : string;
  metric : string;
  base : float * float * float;
  head : float * float * float;
  wins : int;
  pairs : int;
  verdict : string;
}

let judge spec ~workload base head =
  let better a b = if spec.better_higher then a > b else a < b in
  let ((b1, bm, b3) as bq) = quartiles base and ((h1, hm, h3) as hq) = quartiles head in
  let pairs = min (Array.length base) (Array.length head) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better head.(i) base.(i) then incr wins
  done;
  let spread q1 m q3 = if m = 0.0 then 0.0 else Float.abs (q3 -. q1) /. Float.abs m in
  let all_better =
    Array.for_all (fun h -> Array.for_all (fun b -> better h b) base) head
  in
  let worse_by =
    if bm = 0.0 then 0.0
    else (if spec.better_higher then bm -. hm else hm -. bm) /. Float.abs bm
  in
  let verdict =
    if
      pairs > 0
      && float_of_int !wins >= 0.9 *. float_of_int pairs
      && Float.abs (hm -. bm) > Float.abs (b3 -. b1)
    then "better"
    else if (spread b1 bm b3 > spec.bound || spread h1 hm h3 > spec.bound) && not all_better
    then "unresolved"
    else if worse_by > spec.bound then "worse"
    else "same"
  in
  { workload; metric = spec.name; base = bq; head = hq; wins = !wins; pairs; verdict }

let failure_row ~workload (runs : side_run list) =
  let bad =
    List.exists
      (fun r ->
        match List.assoc_opt workload r.workloads with
        | Some w ->
            Json.get_int (Json.member_exn "failed" w) > 0
            || not (Json.get_bool (Json.member_exn "correct" w))
        | None -> false)
      runs
  in
  if bad then
    Some
      {
        workload;
        metric = "failed_ops";
        base = (0.0, 0.0, 0.0);
        head = (1.0, 1.0, 1.0);
        wins = 0;
        pairs = 0;
        verdict = "worse";
      }
  else None

let compare_runs specs ~base ~head =
  let all = base @ head in
  (match all with
  | [] -> ()
  | r0 :: rest ->
      List.iter
        (fun r ->
          if r.seed <> r0.seed then
            raise
              (Refused
                 (Printf.sprintf "%s has seed %d, %s has %d" r.file r.seed r0.file r0.seed));
          if r.digest <> r0.digest then
            raise
              (Refused
                 (Printf.sprintf "%s and %s ran under different cost models" r.file r0.file)))
        rest);
  let workloads =
    List.filter
      (fun name -> List.for_all (fun r -> List.mem_assoc name r.workloads) all)
      (match all with r :: _ -> List.map fst r.workloads | [] -> [])
  in
  List.concat_map
    (fun workload ->
      let values side spec =
        Array.of_list
          (List.filter_map
             (fun r -> metric_value (List.assoc workload r.workloads) spec.name)
             side)
      in
      let rows =
        List.filter_map
          (fun spec ->
            let b = values base spec and h = values head spec in
            if Array.length b = 0 || Array.length h = 0 then None
            else Some (judge spec ~workload b h))
          specs
      in
      rows @ Option.to_list (failure_row ~workload head))
    workloads

let render rows =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "%-14s %-16s %12s %12s %12s %12s %12s %12s %6s  %s\n" "workload" "metric"
    "base q1" "base med" "base q3" "head q1" "head med" "head q3" "wins" "verdict";
  List.iter
    (fun r ->
      let b1, bm, b3 = r.base and h1, hm, h3 = r.head in
      Printf.bprintf buf "%-14s %-16s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %6s  %s\n"
        r.workload r.metric b1 bm b3 h1 hm h3
        (if r.pairs = 0 then "-" else Printf.sprintf "%d/%d" r.wins r.pairs)
        r.verdict)
    rows;
  Buffer.contents buf

let any_worse rows = List.exists (fun r -> r.verdict = "worse") rows
