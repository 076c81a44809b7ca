(* The experiment catalog: every bench section (E1, E9..E20) as data, so
   the harness, smodctl and the tests share one definition of what runs,
   in what order, with what parallel grain.

   Each section decomposes into independent tasks (see Figure8, Ablations
   and Scaleout) executed over a Runner; [run_document] produces the
   versioned bench JSON document.  Because every task is deterministic and
   task metrics merge in task order, the document is bit-identical for any
   job count — which is also what the determinism test in
   test/test_metrics.ml asserts. *)

type outcome = { rows : Bench_json.row list; rendered : string }

type section = {
  s_id : string;
  s_title : string;
  s_unit : string;
  s_tasks : full:bool -> int;  (* independent tasks a Runner can spread *)
  s_dispatches : full:bool -> int;  (* rough simulated dispatch count *)
  s_run : full:bool -> runner:Runner.t -> outcome;
}

let scale ~full n = if full then n * 5 else n

let entries_outcome ~title ~unit_ entries =
  {
    rows = Bench_json.rows_of_entries ~unit_ entries;
    rendered = Ablations.render ~title ~unit_header:unit_ entries;
  }

let figure8_config ~full = if full then Figure8.paper_config else Figure8.quick_config

let figure8_outcome ~full ~runner =
  let config = figure8_config ~full in
  let rows = Figure8.run ~runner config in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "=== Figure 8: Performance Comparisons (%s counts) ===\n"
       (if full then "paper-exact" else "scaled"));
  Buffer.add_string buf (Figure8.render rows);
  (* Headline ratios the paper calls out in section 4.5 / section 5. *)
  (match rows with
  | [ getpid; smod_getpid; smod_incr; rpc ] ->
      Buffer.add_string buf
        (Printf.sprintf "SMOD(test-incr) / getpid()        = %5.2fx (paper: %.2fx)\n"
           (smod_incr.Trial.mean_us /. getpid.Trial.mean_us)
           (6.407 /. 0.658));
      Buffer.add_string buf
        (Printf.sprintf
           "RPC(test-incr)  / SMOD(test-incr) = %5.2fx (paper: %.2fx, \"factor of 10\")\n"
           (rpc.Trial.mean_us /. smod_incr.Trial.mean_us)
           (63.23 /. 6.407));
      Buffer.add_string buf
        (Printf.sprintf "SMOD(SMOD-getpid) - SMOD(test-incr) = %+.3f us (paper: %+.3f us)\n"
           (smod_getpid.Trial.mean_us -. smod_incr.Trial.mean_us)
           (6.532 -. 6.407))
  | _ -> ());
  { rows = List.map Bench_json.row_of_trial rows; rendered = Buffer.contents buf }

let e20_config ~full =
  let c = Scaleout.default_config in
  if full then { c with Scaleout.calls = c.Scaleout.calls * 5 } else c

let e21_config ~full =
  let c = Cluster_bench.default_config in
  if full then { c with Cluster_bench.rounds = c.Cluster_bench.rounds * 5 } else c

let e24_config ~full =
  let c = Fused_bench.default_config in
  if full then { c with Fused_bench.rounds = c.Fused_bench.rounds * 5 } else c

let e25_config ~full =
  let c = Vexec_bench.default_config in
  if full then { c with Vexec_bench.rounds = c.Vexec_bench.rounds * 5 } else c

let e22_config ~full =
  let c = Polling.default_config in
  if full then
    { c with Polling.poller_sessions = c.Polling.poller_sessions @ [ 10_000 ] }
  else c

let e22_cells c = List.length c.Polling.trap_sessions + List.length c.Polling.poller_sessions

let e22_calls c =
  List.fold_left (fun acc s -> acc + (s * c.Polling.batches * c.Polling.batch)) 0
    (c.Polling.trap_sessions @ c.Polling.poller_sessions)

let sections =
  [
    {
      s_id = "e1";
      s_title = "Figure 8: performance comparisons";
      s_unit = "us/call";
      s_tasks = (fun ~full -> 4 * (figure8_config ~full).Figure8.trials);
      s_dispatches =
        (fun ~full ->
          let c = figure8_config ~full in
          c.Figure8.trials * ((3 * c.Figure8.smod_calls) + c.Figure8.rpc_calls));
      s_run = figure8_outcome;
    };
    {
      s_id = "e9";
      s_title = "E9: per-call policy complexity (section 5 prediction)";
      s_unit = "us/call";
      s_tasks = (fun ~full:_ -> 10 * 5);
      s_dispatches = (fun ~full -> 10 * 5 * scale ~full 2_000);
      s_run =
        (fun ~full ~runner ->
          Ablations.policy_ablation ~runner ~calls:(scale ~full 2_000) ()
          |> entries_outcome ~title:"E9: per-call policy complexity (section 5 prediction)"
               ~unit_:"us/call");
    };
    {
      s_id = "e10";
      s_title = "E10: shared stack vs copy-based marshaling (section 3)";
      s_unit = "us/call";
      s_tasks = (fun ~full:_ -> 4 * 5);
      s_dispatches = (fun ~full -> 4 * 5 * 2 * scale ~full 500);
      s_run =
        (fun ~full ~runner ->
          Ablations.marshal_ablation ~runner ~calls:(scale ~full 500) ()
          |> entries_outcome ~title:"E10: shared stack vs copy-based marshaling (section 3)"
               ~unit_:"us/call");
    };
    {
      s_id = "e11";
      s_title = "E11: session establishment, encrypted vs unmap-only (section 4.1)";
      s_unit = "us/session";
      s_tasks = (fun ~full:_ -> 6 * 5);
      s_dispatches = (fun ~full:_ -> 6 * 5 * 40);
      s_run =
        (fun ~full:_ ~runner ->
          Ablations.protection_ablation ~runner ()
          |> entries_outcome
               ~title:"E11: session establishment, encrypted vs unmap-only (section 4.1)"
               ~unit_:"us/session");
    };
    {
      s_id = "e12";
      s_title = "E12: shared-handle bottleneck, queued requests at service (section 4.3)";
      s_unit = "mean queue depth";
      s_tasks = (fun ~full:_ -> 8);
      s_dispatches = (fun ~full:_ -> 2 * 300 * (1 + 2 + 4 + 8));
      s_run =
        (fun ~full:_ ~runner ->
          Ablations.handle_sharing ~runner ()
          |> entries_outcome
               ~title:"E12: shared-handle bottleneck, queued requests at service (section 4.3)"
               ~unit_:"mean queue depth");
    };
    {
      s_id = "e13";
      s_title = "E13: per-call cost of TOCTOU mitigations (section 4.4)";
      s_unit = "us/call";
      s_tasks = (fun ~full:_ -> 3 * 5);
      s_dispatches = (fun ~full -> 3 * 5 * scale ~full 1_000);
      s_run =
        (fun ~full ~runner ->
          Ablations.toctou_cost ~runner ~calls:(scale ~full 1_000) ()
          |> entries_outcome ~title:"E13: per-call cost of TOCTOU mitigations (section 4.4)"
               ~unit_:"us/call");
    };
    {
      s_id = "e14";
      s_title = "E14: the section-5 future-work fast path";
      s_unit = "us/call";
      s_tasks = (fun ~full:_ -> 2 * 5);
      s_dispatches = (fun ~full -> 2 * 5 * scale ~full 2_000);
      s_run =
        (fun ~full ~runner ->
          Ablations.fast_path ~runner ~calls:(scale ~full 2_000) ()
          |> entries_outcome ~title:"E14: the section-5 future-work fast path"
               ~unit_:"us/call");
    };
    {
      s_id = "e15";
      s_title = "E15: per-trap overhead of syscall interposition (section 2)";
      s_unit = "us/call";
      s_tasks = (fun ~full:_ -> 2 * 5);
      s_dispatches = (fun ~full -> 2 * 5 * scale ~full 1_000);
      s_run =
        (fun ~full ~runner ->
          Ablations.systrace_overhead ~runner ~calls:(scale ~full 1_000) ()
          |> entries_outcome
               ~title:"E15: per-trap overhead of syscall interposition (section 2)"
               ~unit_:"us/call");
    };
    {
      s_id = "e16";
      s_title = "E16: smodd session pooling, cold fork vs pooled attach (lib/pool)";
      s_unit = "us/session (throughput rows: kcalls/s)";
      s_tasks = (fun ~full:_ -> 8 * 3);
      s_dispatches = (fun ~full -> 2 * 3 * (1 + 8 + 64) * scale ~full 150);
      s_run =
        (fun ~full ~runner ->
          Ablations.pooling ~runner ~calls:(scale ~full 150) ()
          |> entries_outcome
               ~title:"E16: smodd session pooling, cold fork vs pooled attach (lib/pool)"
               ~unit_:"us/session (throughput rows: kcalls/s)");
    };
    {
      s_id = "e18";
      s_title =
        "E18: dispatch rings vs msgq transport, per-call latency by batch size (lib/ring)";
      s_unit = "us/call";
      s_tasks = (fun ~full:_ -> 8 * 5);
      s_dispatches = (fun ~full -> 2 * 5 * scale ~full 200 * (1 + 4 + 16 + 64));
      s_run =
        (fun ~full ~runner ->
          Ablations.ring_dispatch ~runner ~rounds:(scale ~full 200) ()
          |> entries_outcome
               ~title:
                 "E18: dispatch rings vs msgq transport, per-call latency by batch size \
                  (lib/ring)"
               ~unit_:"us/call");
    };
    {
      s_id = "e19";
      s_title =
        "E19: compiled decision programs vs interpreted KeyNote, per-call latency by \
         assertion count (lib/keynote/compile)";
      s_unit = "us/call";
      s_tasks = (fun ~full:_ -> 16 * 5);
      s_dispatches = (fun ~full -> 4 * 2 * 2 * 5 * scale ~full 100 * 16);
      s_run =
        (fun ~full ~runner ->
          Ablations.policy_compile_dispatch ~runner ~rounds:(scale ~full 100) ()
          |> entries_outcome
               ~title:
                 "E19: compiled decision programs vs interpreted KeyNote, per-call latency \
                  by assertion count (lib/keynote/compile)"
               ~unit_:"us/call");
    };
    {
      s_id = "e20";
      s_title =
        "E20: sharded smodd scale-out, aggregate throughput by shard count (lib/pool/shard)";
      s_unit = "kcalls/s (p99 rows: us)";
      s_tasks =
        (fun ~full:_ ->
          let c = Scaleout.default_config in
          2 * c.Scaleout.trials * List.fold_left ( + ) 0 c.Scaleout.shard_counts);
      s_dispatches =
        (fun ~full ->
          let c = e20_config ~full in
          2 * c.Scaleout.trials
          * List.length c.Scaleout.shard_counts
          * c.Scaleout.clients * c.Scaleout.calls);
      s_run =
        (fun ~full ~runner ->
          Scaleout.run ~runner ~config:(e20_config ~full) ()
          |> entries_outcome
               ~title:
                 "E20: sharded smodd scale-out, aggregate throughput by shard count \
                  (lib/pool/shard)"
               ~unit_:"kcalls/s (p99 rows: us)");
    };
    {
      s_id = "e21";
      s_title =
        "E21: sharded control plane — coherence modes, consistent-hash placement, live \
         migration (lib/cluster)";
      s_unit = "kcalls/s (p99/propagation/migration rows: us; placement rows: ratio or %)";
      s_tasks = (fun ~full:_ -> Cluster_bench.task_count Cluster_bench.default_config);
      s_dispatches =
        (fun ~full ->
          let c = e21_config ~full in
          let cells =
            (2 * List.length c.Cluster_bench.shard_counts) (* scaling: 2 transports *)
            + 4 (* storm: 2 transports x 2 modes *)
          in
          cells * c.Cluster_bench.trials * c.Cluster_bench.clients * c.Cluster_bench.rounds
          * c.Cluster_bench.calls_per_round);
      s_run =
        (fun ~full ~runner ->
          Cluster_bench.run ~runner ~config:(e21_config ~full) ()
          |> entries_outcome
               ~title:
                 "E21: sharded control plane — coherence modes, consistent-hash placement, \
                  live migration (lib/cluster)"
               ~unit_:"kcalls/s (p99/propagation/migration rows: us; placement rows: ratio \
                       or %)");
    };
    {
      s_id = "e22";
      s_title =
        "E22: zero-trap data path — kernel poller + effects multiplexing vs trap-per-batch";
      s_unit = "us/call (traps rows: traps/call)";
      s_tasks = (fun ~full -> e22_cells (e22_config ~full) * (e22_config ~full).Polling.trials);
      s_dispatches = (fun ~full ->
          let c = e22_config ~full in
          e22_calls c * c.Polling.trials);
      s_run =
        (fun ~full ~runner ->
          Polling.run ~runner ~config:(e22_config ~full) ()
          |> entries_outcome
               ~title:
                 "E22: zero-trap data path — kernel poller + effects multiplexing vs \
                  trap-per-batch"
               ~unit_:"us/call (traps rows: traps/call)");
    };
    {
      s_id = "e24";
      s_title =
        "E24: fused batch policy evaluation — one compiled pass per batch vs per-slot \
         (lib/keynote/fuse)";
      s_unit = "us/call (speedup rows: x)";
      s_tasks = (fun ~full -> Fused_bench.task_count (e24_config ~full));
      s_dispatches = (fun ~full -> Fused_bench.dispatch_count (e24_config ~full));
      s_run =
        (fun ~full ~runner ->
          Fused_bench.run ~runner ~config:(e24_config ~full) ()
          |> entries_outcome
               ~title:
                 "E24: fused batch policy evaluation — one compiled pass per batch vs \
                  per-slot (lib/keynote/fuse)"
               ~unit_:"us/call (speedup rows: x)");
    };
    {
      s_id = "e25";
      s_title =
        "E25: vectorized batch-major residue execution — one pass per opcode over all \
         lanes vs slot-major (lib/keynote/vexec)";
      s_unit = "us/call (speedup rows: x)";
      s_tasks = (fun ~full -> Vexec_bench.task_count (e25_config ~full));
      s_dispatches = (fun ~full -> Vexec_bench.dispatch_count (e25_config ~full));
      s_run =
        (fun ~full ~runner ->
          Vexec_bench.run ~runner ~config:(e25_config ~full) ()
          |> entries_outcome
               ~title:
                 "E25: vectorized batch-major residue execution — one pass per opcode \
                  over all lanes vs slot-major (lib/keynote/vexec)"
               ~unit_:"us/call (speedup rows: x)");
    };
  ]

let find id = List.find_opt (fun s -> s.s_id = id) sections

(* Rough single-core simulated-dispatch rate of the harness, used only for
   the --list / bench-status wall-clock estimates; the real number depends
   on the host, the experiment mix and the cost of each dispatch path. *)
let approx_dispatch_rate = 450_000.0

let estimate_seconds ~full s = float_of_int (s.s_dispatches ~full) /. approx_dispatch_rate

(* Run the given sections in catalog order and assemble the bench JSON
   document.  [on_section] fires after each section with its outcome (the
   harness prints; tests pass nothing).  The metric snapshot is the
   calling domain's registry — run inside [Smod_metrics.with_registry]
   for an isolated document. *)
let run_document ?(on_section = fun _ _ -> ()) ?meta ~full ~runner ids =
  let chosen = List.filter (fun s -> List.mem s.s_id ids) sections in
  let experiments =
    List.map
      (fun s ->
        let o = s.s_run ~full ~runner in
        on_section s o;
        Bench_json.experiment ~id:s.s_id ~title:s.s_title o.rows)
      chosen
  in
  {
    Bench_json.mode = (if full then "full" else "quick");
    meta;
    experiments;
    metrics = Smod_metrics.snapshot ();
  }
