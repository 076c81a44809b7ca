(* Result documents: the JSON file a run writes with --out (what
   [compare] reads), the run fingerprint in its [meta], and the one-line
   summary the run prints last on standard output. *)

module Json = Smod_util.Json
module Cost = Smod_sim.Cost_model
module W = Workloads
module L = Loadgen
module M = Measure

let schema = "smod-e2e-result"
let version = 1

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

(* The paper-calibrated ops a cost-model edit would touch: a digest over
   their cycle charges makes two results comparable only when the model
   they ran under is the same. *)
let calibrated_ops =
  Cost.
    [
      Trap_enter;
      Trap_exit;
      Context_switch;
      Msgq_send;
      Msgq_recv;
      Copy_bytes 64;
      Page_map;
      Page_fault_resolve;
      Peer_share_fault;
      Cred_check;
      Keynote_assertion_eval;
      Policy_compiled_op;
      Svm_instr;
      Fork_base;
      Aes_block;
      Sha256_block;
    ]

let cost_model_digest () =
  let words = List.map (fun op -> Printf.sprintf "%h" (Cost.cycles op)) calibrated_ops in
  Digest.to_hex (Digest.string (String.concat "," (Printf.sprintf "%h" Cost.mhz :: words)))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checked-out commit, read from .git without running git; "unknown"
   outside a git checkout. *)
let git_sha () =
  let trimmed path = String.trim (read_file path) in
  try
    let head = trimmed ".git/HEAD" in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" ->
        let ref_name = String.sub head (i + 1) (String.length head - i - 1) in
        if Sys.file_exists (".git/" ^ ref_name) then trimmed (".git/" ^ ref_name)
        else
          let packed = String.split_on_char '\n' (read_file ".git/packed-refs") in
          let suffix = " " ^ ref_name in
          List.find_map
            (fun line ->
              if String.ends_with ~suffix line then Some (String.sub line 0 40) else None)
            packed
          |> Option.value ~default:"unknown"
    | Some _ | None -> head
  with Sys_error _ -> "unknown"

let cpu_model () =
  try
    String.split_on_char '\n' (read_file "/proc/cpuinfo")
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | key :: value when String.trim key = "model name" ->
               Some (String.trim (String.concat ":" value))
           | _ -> None)
    |> Option.value ~default:"unknown"
  with Sys_error _ -> "unknown"

let utc_now () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let meta ~seed ~seconds ~traced =
  Json.Obj
    [
      ("git_sha", Json.String (git_sha ()));
      ("date", Json.String (utc_now ()));
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("traced", Json.Bool traced);
      ("ocaml", Json.String Sys.ocaml_version);
      ("dune_profile", Json.String Build_info.profile);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("cpu_model", Json.String (cpu_model ()));
      ("cost_model_digest", Json.String (cost_model_digest ()));
    ]

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

(* JSON cannot carry nan; a metric with no samples is written as null. *)
let num x = if Float.is_finite x then Json.Float x else Json.Null

let metric_obj ?(samples = false) (ms : Report.metric list) =
  Json.Obj
    (List.map
       (fun (m : Report.metric) ->
         ( m.Report.name,
           Json.Obj
             ([ ("value", num m.Report.value); ("unit", Json.String m.Report.unit) ]
             @ if samples then [ ("samples", Json.Int m.Report.samples) ] else []) ))
       ms)

let floats xs = Json.Arr (Array.to_list (Array.map num xs))

(* Each wall rep's slice times, in the order the reps ran. *)
let wall_json (wall : M.wall) =
  Json.Obj
    [
      ("slice_calls", Json.Int wall.M.slice_calls);
      ("reps_slice_s", Json.Arr (List.rev_map floats wall.M.reps_slice_s));
    ]

let config_json (w : W.t) =
  Json.Obj
    [
      ("sessions", Json.Int w.W.sessions);
      ("calls_per_op", Json.Int w.W.calls_per_op);
      ("light_rate_ops_s", Json.Float w.W.light_rate);
      ("headline_rate_ops_s", Json.Float w.W.headline_rate);
      ("ops", Json.Int w.W.ops);
      ("light_ops", Json.Int w.W.light_ops);
      ("probe_ops", Json.Int w.W.probe_ops);
      ("wall_ops", Json.Int w.W.wall_ops);
      ("p99_limit_us", Json.Float w.W.p99_limit_us);
      ("knee_range_ops_s", floats [| w.W.knee_lo; w.W.knee_hi |]);
      ("why", Json.String w.W.why);
    ]

(* Per-layer counters are free in every run; the span-based ones only
   exist in a traced run. *)
let counter_metrics (w : W.t) r =
  Report.per_layer_metrics w r ~spans:None ~wall_kcalls_s:0.0 ~overhead:0.0
  |> List.filter (fun (m : Report.metric) ->
         not
           (String.starts_with ~prefix:"span." m.Report.name
           || String.starts_with ~prefix:"trace." m.Report.name))

let workload_json ?trace_file (run : M.t) =
  let w = run.M.workload in
  let common =
    [
      ("name", Json.String w.W.name);
      ("config", config_json w);
      ("correct", Json.Bool (Report.correct run));
      ("identical_reps", Json.Bool run.M.identical);
      ("attempted", Json.Int (Report.attempted run));
      ("failed", Json.Int (Report.failed run));
      ("metrics", metric_obj ~samples:true (Report.metrics run));
    ]
  in
  let detail =
    match run.M.mode with
    | M.Untraced u ->
        [
          ("per_layer", metric_obj (counter_metrics w u.M.headline));
          ("digest", Json.String (L.digest u.M.headline));
          ("setup_s_reps", floats u.M.setup_s);
          ( "knee_probes",
            Json.Arr
              (List.map
                 (fun (p : M.probe) ->
                   Json.Obj
                     [
                       ("rate_ops_s", Json.Float p.M.p_rate);
                       ("pass", Json.Bool p.M.p_pass);
                       ("p99_us", num p.M.p_p99_us);
                       ("aborted", Json.Bool p.M.p_aborted);
                     ])
                 u.M.probes) );
        ]
    | M.Traced t ->
        [
          ("digest", Json.String (L.digest t.M.t_headline));
          ("untraced_wall", wall_json t.M.t_untraced);
          ("traced_wall", wall_json t.M.t_traced);
          ( "self_time",
            Json.Arr (List.map Spans.aggregate_json (Spans.aggregates t.M.t_spans)) );
          ("trace_file", match trace_file with Some f -> Json.String f | None -> Json.Null);
        ]
  in
  Json.Obj (common @ detail)

let document ~meta runs_json = Json.Obj
    [
      ("schema", Json.String schema);
      ("version", Json.Int version);
      ("meta", meta);
      ("workloads", Json.Arr runs_json);
    ]

(* The last line of standard output: correct, attempted, failed and the
   metrics of the mode that ran.  With several workloads the metric names
   are prefixed "<workload>/". *)
let summary_line (runs : M.t list) =
  let prefix run =
    match runs with [ _ ] -> "" | _ -> run.M.workload.W.name ^ "/"
  in
  let metrics =
    List.concat_map
      (fun run ->
        List.map
          (fun (m : Report.metric) ->
            ( prefix run ^ m.Report.name,
              Json.Obj [ ("value", num m.Report.value); ("unit", Json.String m.Report.unit) ] ))
          (Report.metrics run))
      runs
  in
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all Report.correct runs));
         ("attempted", Json.Int (List.fold_left (fun a r -> a + Report.attempted r) 0 runs));
         ("failed", Json.Int (List.fold_left (fun a r -> a + Report.failed r) 0 runs));
         ("metrics", Json.Obj metrics);
       ])
