(* The perf trajectory: an append-only record of headline metrics, one
   entry per dated snapshot under bench/baselines/ (PR 6).

   Each entry distils a captured bench document down to a handful of
   numbers worth watching across the repo's history — the Figure-8
   dispatch cost, the E9 per-assertion slopes, pooled attach, the ring
   batch-16 fast path, compiled kn-16, the K=8 scale-out aggregate, and
   the fused batch-64 figure.  Entries predating a headline simply lack
   its key; rendering shows "-" for them, never an error.
   Values are [float option]: a smoke capture that skipped a section
   records [None] (JSON null) for its metrics rather than faking a zero,
   so the history stays honest about what each capture actually ran. *)

module Json = Smod_util.Json
module Table = Smod_util.Table

let schema_name = "smod-bench-trajectory"
let schema_version = 1

type entry = {
  t_date : string;  (* "YYYY-MM-DD" *)
  t_commit : string;  (* git short sha, or "nogit" *)
  t_mode : string;  (* "quick" or "full" *)
  t_jobs : int;
  t_snapshot : string;  (* snapshot file name, e.g. "2026-08-08_ab12cd3.json" *)
  t_values : (string * float option) list;  (* headline key -> value *)
}

(* ------------------------------------------------------------------ *)
(* Headline extraction                                                 *)
(* ------------------------------------------------------------------ *)

let find_mean (doc : Bench_json.doc) ~experiment ~label =
  List.find_opt (fun (e : Bench_json.experiment) -> e.e_id = experiment) doc.experiments
  |> Option.map (fun (e : Bench_json.experiment) -> e.e_rows)
  |> Option.value ~default:[]
  |> List.find_opt (fun (r : Bench_json.row) -> r.r_label = label)
  |> Option.map (fun (r : Bench_json.row) -> r.r_mean)

(* Least-squares slope (us per assertion) over the E9 assertion-count
   sweep; the section-5 "cost grows with policy complexity" number. *)
let slope_over doc labels =
  let points =
    List.filter_map
      (fun (x, label) ->
        Option.map (fun y -> (float_of_int x, y)) (find_mean doc ~experiment:"e9" ~label))
      labels
  in
  if List.length points < List.length labels then None
  else
    let n = float_of_int (List.length points) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
    let denom = (n *. sxx) -. (sx *. sx) in
    if denom = 0.0 then None else Some (((n *. sxy) -. (sx *. sy)) /. denom)

(* key, short column header for the rendered table, extractor *)
let headlines =
  [
    ( "e1_test_incr_us",
      "e1 us",
      fun doc -> find_mean doc ~experiment:"e1" ~label:"SMOD(test-incr)" );
    ( "e9_slope_us",
      "e9 us/asrt",
      fun doc ->
        slope_over doc [ (1, "keynote-1"); (4, "keynote-4"); (16, "keynote-16") ] );
    ( "e9_slope_compiled_us",
      "e9c us/asrt",
      fun doc ->
        slope_over doc
          [ (1, "keynote-1 compiled"); (4, "keynote-4 compiled"); (16, "keynote-16 compiled") ]
    );
    ( "e16_attach_us",
      "e16 us",
      fun doc -> find_mean doc ~experiment:"e16" ~label:"pooled attach (smodd, warm)" );
    ( "e18_ring_b16_us",
      "e18 us",
      fun doc -> find_mean doc ~experiment:"e18" ~label:"ring batch 16 (mean)" );
    ( "e19_compiled_kn16_us",
      "e19 us",
      fun doc -> find_mean doc ~experiment:"e19" ~label:"msgq kn-16 compiled (mean)" );
    ( "e20_ring_k8_kcalls",
      "e20 kc/s",
      fun doc -> find_mean doc ~experiment:"e20" ~label:"ring K=8 aggregate (kcalls/s)" );
    ( "e21_ring_k8_storm_kcalls",
      "e21 kc/s",
      fun doc ->
        find_mean doc ~experiment:"e21" ~label:"ring K=8 lazy storm aggregate (kcalls/s)" );
    ( "e22_poller_traps_per_call",
      "e22 t/c",
      fun doc -> find_mean doc ~experiment:"e22" ~label:"poller S=64 traps/call" );
    ( "e24_fused_batch64_kn16",
      "e24 us",
      fun doc -> find_mean doc ~experiment:"e24" ~label:"ring b64 kn-16 fused (mean)" );
    ( "e25_vector_batch64_kn16",
      "e25 us",
      fun doc -> find_mean doc ~experiment:"e25" ~label:"ring b64 kn-16 vectorized (mean)" );
  ]

let headline_keys = List.map (fun (k, _, _) -> k) headlines

let entry_of_doc ~snapshot (doc : Bench_json.doc) =
  let date, commit, jobs =
    match doc.meta with
    | Some m -> (m.Bench_json.mt_date, m.mt_commit, m.mt_jobs)
    | None -> ("undated", "nogit", 1)
  in
  {
    t_date = date;
    t_commit = commit;
    t_mode = doc.mode;
    t_jobs = jobs;
    t_snapshot = snapshot;
    t_values = List.map (fun (k, _, extract) -> (k, extract doc)) headlines;
  }

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let json_of_entry e =
  Json.Obj
    [
      ("date", Json.String e.t_date);
      ("commit", Json.String e.t_commit);
      ("mode", Json.String e.t_mode);
      ("jobs", Json.Int e.t_jobs);
      ("snapshot", Json.String e.t_snapshot);
      ( "values",
        Json.Obj
          (List.map
             (fun (k, v) ->
               (k, match v with Some f -> Json.Float f | None -> Json.Null))
             e.t_values) );
    ]

let entry_of_json j =
  {
    t_date = Json.get_string (Json.member_exn "date" j);
    t_commit = Json.get_string (Json.member_exn "commit" j);
    t_mode = Json.get_string (Json.member_exn "mode" j);
    t_jobs = Json.get_int (Json.member_exn "jobs" j);
    t_snapshot = Json.get_string (Json.member_exn "snapshot" j);
    t_values =
      (match Json.member_exn "values" j with
      | Json.Obj fields ->
          List.map
            (fun (k, v) ->
              (k, match v with Json.Null -> None | v -> Some (Json.get_float v)))
            fields
      | _ -> raise (Json.Parse_error "trajectory: values must be an object"));
  }

let to_json entries =
  Json.Obj
    [
      ("schema", Json.String schema_name);
      ("schema_version", Json.Int schema_version);
      ("entries", Json.Arr (List.map json_of_entry entries));
    ]

let to_string entries = Json.to_string (to_json entries) ^ "\n"

let of_json j =
  (match Json.member "schema" j with
  | Some (Json.String s) when s = schema_name -> ()
  | _ -> raise (Json.Parse_error "not a smod-bench-trajectory document"));
  (match Json.get_int (Json.member_exn "schema_version" j) with
  | v when v = schema_version -> ()
  | v ->
      raise
        (Json.Parse_error
           (Printf.sprintf "trajectory schema_version %d unsupported (want %d)" v
              schema_version)));
  List.map entry_of_json (Json.to_list (Json.member_exn "entries" j))

let of_string s = of_json (Json.of_string s)

(* ------------------------------------------------------------------ *)
(* History                                                             *)
(* ------------------------------------------------------------------ *)

(* By date only, and stable: captures from one day keep the order they
   were appended in, which a short sha says nothing about. *)
let sorted entries = List.stable_sort (fun a b -> compare a.t_date b.t_date) entries

let append entries e =
  let dup x = x.t_date = e.t_date && x.t_commit = e.t_commit && x.t_snapshot = e.t_snapshot in
  if List.exists dup entries then entries else sorted (entries @ [ e ])

let render entries =
  let t =
    Table.create
      ~aligns:
        ([ Table.Left; Table.Left; Table.Left; Table.Right ]
        @ List.map (fun _ -> Table.Right) headlines)
      ([ "date"; "commit"; "mode"; "jobs" ] @ List.map (fun (_, h, _) -> h) headlines)
  in
  List.iter
    (fun e ->
      Table.add_row t
        ([ e.t_date; e.t_commit; e.t_mode; string_of_int e.t_jobs ]
        @ List.map
            (fun k ->
              match List.assoc_opt k e.t_values with
              | Some (Some v) -> Printf.sprintf "%.4f" v
              | Some None | None -> "-")
            headline_keys))
    (sorted entries);
  Table.render t
