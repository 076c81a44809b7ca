(* The end-to-end benchmark CLI (see README.md).

     main.exe run [--workload NAME|all] [--seed N] [--seconds S]
                  [--trace 0|1] [--out FILE] [--trace-dir DIR]
     main.exe compare --base FILE... --head FILE... [--benchmark FILE]

   [run] prints a table per workload, then, as its last line, one JSON
   object with correct/attempted/failed and the metrics of the mode that
   ran (end-to-end untraced, per-layer traced).  It exits 1 when an op
   failed or returned a wrong result, or when reps that must be
   bit-identical were not. *)

open Cmdliner
open Smod_e2e

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let print_run (run : Measure.t) ~trace_file =
  let w = run.Measure.workload in
  Printf.printf "== %s (seed %d): %s\n" w.Workloads.name run.Measure.seed w.Workloads.why;
  Printf.printf
    "   %d sessions, %d calls/op, light %.0f ops/s, headline %.0f ops/s, N=%d, wall reps of %d \
     ops, p99 limit %.0f us\n"
    w.Workloads.sessions w.Workloads.calls_per_op w.Workloads.light_rate
    w.Workloads.headline_rate w.Workloads.ops w.Workloads.wall_ops w.Workloads.p99_limit_us;
  let print (m : Report.metric) =
    Printf.printf "   %-36s %14.6g %s\n" m.Report.name m.Report.value m.Report.unit
  in
  (match run.Measure.mode with
  | Measure.Untraced u ->
      List.iter
        (fun (m : Report.metric) ->
          Printf.printf "   %-36s %14.6g %-9s (%d samples)\n" m.Report.name m.Report.value
            m.Report.unit m.Report.samples)
        (Report.metrics run);
      List.iter print (Result_doc.counter_metrics w u.Measure.headline)
  | Measure.Traced _ -> List.iter print (Report.metrics run));
  Option.iter (Printf.printf "   trace: %s\n") trace_file;
  Printf.printf "   correct=%b attempted=%d failed=%d identical_reps=%b\n%!"
    (Report.correct run) (Report.attempted run) (Report.failed run) run.Measure.identical

let run workload seed seconds trace out trace_dir =
  let workloads =
    if workload = "all" then Ok Workloads.all
    else
      match Workloads.find workload with
      | Some w -> Ok [ w ]
      | None ->
          Error
            (Printf.sprintf "unknown workload %S (one of: all, %s)" workload
               (String.concat ", " Workloads.names))
  in
  match (workloads, trace) with
  | Error e, _ -> `Error (false, e)
  | Ok _, t when t <> 0 && t <> 1 -> `Error (false, "--trace takes 0 or 1")
  | Ok ws, _ -> (
      let traced = trace = 1 in
      let log s = prerr_endline ("e2e: " ^ s) in
      try
        let results =
          List.map
            (fun w ->
              if traced then begin
                let r = Measure.run_traced ~log w ~seed ~seconds in
                mkdir_p trace_dir;
                let file = Filename.concat trace_dir ("trace-" ^ w.Workloads.name ^ ".json") in
                (match r.Measure.mode with
                | Measure.Traced t ->
                    Spans.write_chrome t.Measure.t_spans ~path:file
                      ~meta:
                        [
                          ("workload", Smod_util.Json.String w.Workloads.name);
                          ("seed", Smod_util.Json.Int seed);
                        ]
                | Measure.Untraced _ -> ());
                (r, Some file)
              end
              else (Measure.run_untraced ~log w ~seed ~seconds, None))
            ws
        in
        List.iter (fun (r, trace_file) -> print_run r ~trace_file) results;
        Option.iter
          (fun path ->
            let doc =
              Result_doc.document
                ~meta:(Result_doc.meta ~seed ~seconds ~traced)
                (List.map
                   (fun (r, trace_file) -> Result_doc.workload_json ?trace_file r)
                   results)
            in
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (Smod_util.Json.to_string doc)))
          out;
        let runs = List.map fst results in
        print_endline (Result_doc.summary_line runs);
        if List.for_all (fun r -> Report.correct r && Report.failed r = 0) runs then `Ok 0
        else `Ok 1
      with Loadgen.Setup_failed msg -> `Error (false, "set-up failed: " ^ msg))

let run_cmd =
  let workload =
    Arg.(
      value & opt string "all"
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            ("Workload to run, or $(b,all): " ^ String.concat ", " Workloads.names ^ "."))
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for arrivals, ops and world jitter.")
  in
  let seconds =
    Arg.(
      value & opt float 3.0
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Wall seconds of set-up reps (traced: of wall reps) per workload.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: traced run (per-layer metrics and a Chrome trace); 0: end-to-end run.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the result document.")
  in
  let trace_dir =
    Arg.(
      value & opt string "bench/e2e/out"
      & info [ "trace-dir" ] ~docv:"DIR" ~doc:"Where a traced run writes its Chrome traces.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run workloads and print their metrics")
    Term.(ret (const run $ workload $ seed $ seconds $ trace $ out $ trace_dir))

let compare benchmark base head =
  try
    let specs = Compare.load_specs benchmark in
    let rows =
      Compare.compare_runs specs ~base:(List.map Compare.load_run base)
        ~head:(List.map Compare.load_run head)
    in
    print_string (Compare.render rows);
    `Ok (if Compare.any_worse rows then 1 else 0)
  with Compare.Refused msg | Smod_util.Json.Parse_error msg | Sys_error msg ->
    prerr_endline ("compare: refused: " ^ msg);
    `Ok 2

let compare_cmd =
  let files name doc = Arg.(non_empty & opt_all string [] & info [ name ] ~docv:"FILE" ~doc) in
  let benchmark =
    Arg.(
      value & opt string "BENCHMARK.json"
      & info [ "benchmark" ] ~docv:"FILE" ~doc:"Metric bounds and directions.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge head result files against base result files")
    Term.(
      ret
        (const compare $ benchmark
        $ files "base" "A result file of the parent (repeatable)."
        $ files "head" "A result file of the change (repeatable)."))

let () =
  let doc = "End-to-end SecModule benchmark: open-loop workloads, latency, knee, wall cost" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "main" ~doc) [ run_cmd; compare_cmd ]))
