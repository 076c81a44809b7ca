(* The benchmark's metrics, by name.

   End-to-end metrics are what a user of the system sees: latency under
   arriving load (simulated), the knee, set-up time and memory.  Per-layer
   metrics are named after the lib/ directories; each is a counter ratio
   over the headline window, a span statistic from the traced run, or (for
   [*.model_us_per_call]) an estimate that multiplies counts by
   [Cost_model.cycles].  The traced run also reports what the simulator
   costs in real time ([trace.wall_kcalls_s]): the host's speed drifts by
   more over minutes than any bound allows, so it is reported, not
   bounded.

   BENCHMARK.json at the repository root lists the same names; a test
   keeps the two in step. *)

module W = Workloads
module L = Loadgen
module M = Measure
module Cost = Smod_sim.Cost_model
module Stats = Smod_util.Stats

type metric = { name : string; unit : string; value : float; samples : int }

let end_to_end =
  [
    ("lat_low_p50_us", "us");
    ("lat_p50_us", "us");
    ("lat_p99_us", "us");
    ("lat_p999_us", "us");
    ("knee_kops_s", "kops/s");
    ("setup_s", "s");
    ("live_heap_mb", "MiB");
  ]

let per_layer =
  [
    ("gen.lag_p99_us", "us");
    ("gen.queue_p99_us", "us");
    ("gen.max_backlog", "count");
    ("gen.steps_per_call", "1/call");
    ("span.sched_step_wall_ns", "ns");
    ("kern.traps_per_call", "1/call");
    ("kern.ctx_switches_per_call", "1/call");
    ("kern.msgq_ops_per_call", "1/call");
    ("kern.wakeups_per_call", "1/call");
    ("kern.model_us_per_call", "us");
    ("svm.instructions_per_call", "1/call");
    ("svm.model_us_per_call", "us");
    ("secmodule.policy_checks_per_call", "1/call");
    ("secmodule.denied_frac", "ratio");
    ("span.secmodule_call_p50_us", "us");
    ("span.secmodule_connect_p50_us", "us");
    ("span.secmodule_close_p50_us", "us");
    ("secmodule.scrub_kb_per_session", "KiB");
    ("secmodule.compile_hit_ratio", "ratio");
    ("secmodule.compiles_per_update", "1/update");
    ("keynote.assertions_per_call", "1/call");
    ("keynote.compiled_ops_per_call", "1/call");
    ("keynote.fused_ops_per_call", "1/call");
    ("keynote.model_us_per_call", "us");
    ("keynote.vector_units_per_call", "1/call");
    ("keynote.vector_lane_frac", "ratio");
    ("keynote.lanes_per_vector_batch", "count");
    ("ring.poller_slots_per_sweep", "count");
    ("ring.poller_empty_sweep_frac", "ratio");
    ("ring.poller_parks_per_kcall", "1/kcall");
    ("ring.doorbells_per_kcall", "1/kcall");
    ("ring.mux_peak_fibers", "count");
    ("span.ring_batch_p50_us", "us");
    ("pool.hit_ratio", "ratio");
    ("pool.wait_frac", "ratio");
    ("pool.attach_wait_p99_us", "us");
    ("pool.spawns", "count");
    ("pool.decision_hit_ratio", "ratio");
    ("pool.compiled_hit_ratio", "ratio");
    ("pool.flushes_per_update", "1/update");
    ("span.set_policy_wall_us", "us");
    ("vmem.faults_per_session", "1/session");
    ("vmem.peer_share_faults_per_session", "1/session");
    ("vmem.pages_mapped_per_session", "1/session");
    ("trace.wall_kcalls_s", "kcalls/s");
    ("trace.overhead_frac", "ratio");
  ]

let median xs = if Array.length xs = 0 then Float.nan else Stats.median xs
let div a b = if b = 0.0 then 0.0 else a /. b

let make units name value samples =
  match List.assoc_opt name units with
  | Some unit -> { name; unit; value; samples }
  | None -> invalid_arg ("Report: unknown metric " ^ name)

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)
(* ------------------------------------------------------------------ *)

let end_to_end_metrics (u : M.untraced) =
  let m = make end_to_end in
  let light = M.completed_latencies u.M.light in
  let head = M.completed_latencies u.M.headline in
  let n_head = Array.length head in
  [
    m "lat_low_p50_us" (M.percentile light 50.0) (Array.length light);
    m "lat_p50_us" (M.percentile head 50.0) n_head;
    m "lat_p99_us" (M.percentile head 99.0) n_head;
    m "lat_p999_us" (M.percentile head 99.9) n_head;
    m "knee_kops_s" (u.M.knee_ops_s /. 1e3) (List.length u.M.probes);
    m "setup_s" (median u.M.setup_s) (Array.length u.M.setup_s);
    m "live_heap_mb" u.M.headline.L.heap_mb 1;
  ]

(* ------------------------------------------------------------------ *)
(* Per layer                                                           *)
(* ------------------------------------------------------------------ *)

let counter (r : L.rep) name =
  match List.assoc_opt name r.L.counters with
  | Some (Smod_metrics.Counter_sample v) -> float_of_int v
  | Some (Smod_metrics.Histogram_sample _) | None -> 0.0

let hist_quantile (r : L.rep) name q =
  match List.assoc_opt name r.L.counters with
  | Some (Smod_metrics.Histogram_sample h) when h.Smod_metrics.hs_count > 0 ->
      Smod_metrics.snapshot_quantile h q
  | Some _ | None -> 0.0

let cycles_us op n = n *. Cost.cycles op /. Cost.cycles_per_us

let finite_p99 xs = M.percentile (M.finite xs) 99.0

(* Counters are deltas over the headline window of the untraced rep;
   spans come from the traced rep.  A ratio whose denominator is zero
   (no sessions started on a long-lived workload, no poller on msgq)
   reads 0. *)
let per_layer_metrics (w : W.t) (r : L.rep) ~spans ~wall_kcalls_s ~overhead =
  let m name v = make per_layer name v 1 in
  let c = counter r in
  let calls = float_of_int (L.calls w r) in
  let per_call x = div x calls and per_kcall x = div x (calls /. 1e3) in
  let sessions = c "secmodule.sessions_started" in
  let updates = float_of_int r.L.updates in
  let traps = c "kern.syscalls" and switches = c "kern.context_switches" in
  let sends = c "kern.msgq_sends" and recvs = c "kern.msgq_recvs" in
  let wakeups = c "kern.sched_wakeups" in
  let kern_us =
    cycles_us Cost.Trap_enter traps +. cycles_us Cost.Trap_exit traps
    +. cycles_us Cost.Context_switch switches +. cycles_us Cost.Msgq_send sends
    +. cycles_us Cost.Msgq_recv recvs +. cycles_us Cost.Sched_wakeup wakeups
  in
  let instr = c "svm.instructions" in
  let assertions = c "keynote.assertions_evaluated" in
  let compiled_ops = c "keynote.compiled_ops" and fused_ops = c "keynote.fused_ops" in
  let vunits = c "keynote.vector_units" and vlanes = c "keynote.vector_lanes" in
  let keynote_us =
    cycles_us Cost.Keynote_assertion_eval assertions
    +. cycles_us Cost.Policy_compiled_op (compiled_ops +. fused_ops)
    +. cycles_us Cost.Policy_fused_setup (c "keynote.fused_batches")
    +. cycles_us Cost.Policy_vector_op vunits
  in
  let allowed = c "secmodule.calls" and denied = c "secmodule.calls_denied" in
  let compile_hits = c "secmodule.policy_compile_hits" in
  let compile_misses = c "secmodule.policy_compile_misses" in
  let pool_hit = c "pool.hit" and pool_miss = c "pool.miss" in
  let cache_hits = c "policy_cache.hits" and cache_misses = c "policy_cache.misses" in
  let ch = c "policy_cache.compiled_hits" and cm = c "policy_cache.compiled_misses" in
  let span_stat name f =
    match spans with
    | None -> 0.0
    | Some aggs -> (
        match Spans.find_aggregate aggs name with Some a -> f a | None -> 0.0)
  in
  let sim_p50 name = span_stat name (fun a -> a.Spans.a_sim_p50_us) in
  [
    m "gen.lag_p99_us" (finite_p99 r.L.lag_us);
    m "gen.queue_p99_us" (finite_p99 r.L.queue_us);
    m "gen.max_backlog" (float_of_int r.L.max_backlog);
    m "gen.steps_per_call" (per_call (float_of_int r.L.steps));
    m "span.sched_step_wall_ns" (span_stat "sched.step" (fun a -> a.Spans.a_wall_p50_ns));
    m "kern.traps_per_call" (per_call traps);
    m "kern.ctx_switches_per_call" (per_call switches);
    m "kern.msgq_ops_per_call" (per_call (sends +. recvs));
    m "kern.wakeups_per_call" (per_call wakeups);
    m "kern.model_us_per_call" (per_call kern_us);
    m "svm.instructions_per_call" (per_call instr);
    m "svm.model_us_per_call" (per_call (cycles_us Cost.Svm_instr instr));
    m "secmodule.policy_checks_per_call" (per_call (c "secmodule.policy_checks"));
    m "secmodule.denied_frac" (div denied (allowed +. denied));
    m "span.secmodule_call_p50_us" (sim_p50 "secmodule.call");
    m "span.secmodule_connect_p50_us" (sim_p50 "secmodule.connect");
    m "span.secmodule_close_p50_us" (sim_p50 "secmodule.close");
    m "secmodule.scrub_kb_per_session" (div (c "secmodule.scrub_bytes" /. 1024.0) sessions);
    m "secmodule.compile_hit_ratio" (div compile_hits (compile_hits +. compile_misses));
    m "secmodule.compiles_per_update" (div (c "secmodule.policy_compiles") updates);
    m "keynote.assertions_per_call" (per_call assertions);
    m "keynote.compiled_ops_per_call" (per_call compiled_ops);
    m "keynote.fused_ops_per_call" (per_call fused_ops);
    m "keynote.model_us_per_call" (per_call keynote_us);
    m "keynote.vector_units_per_call" (per_call vunits);
    m "keynote.vector_lane_frac" (per_call vlanes);
    m "keynote.lanes_per_vector_batch" (div vlanes (c "keynote.vector_batches"));
    m "ring.poller_slots_per_sweep"
      (div (c "poller.slots_stamped") (float_of_int r.L.poller_sweeps));
    m "ring.poller_empty_sweep_frac"
      (div (float_of_int r.L.poller_empty_sweeps) (float_of_int r.L.poller_sweeps));
    m "ring.poller_parks_per_kcall" (per_kcall (c "poller.parks"));
    m "ring.doorbells_per_kcall" (per_kcall (c "poller.doorbells"));
    m "ring.mux_peak_fibers" (float_of_int r.L.mux_peak);
    m "span.ring_batch_p50_us" (sim_p50 "ring.batch");
    m "pool.hit_ratio" (div pool_hit (pool_hit +. pool_miss));
    m "pool.wait_frac" (div (c "pool.waits") (c "pool.attaches"));
    m "pool.attach_wait_p99_us" (hist_quantile r "pool.attach_wait_us" 0.99);
    m "pool.spawns" (c "pool.spawns");
    m "pool.decision_hit_ratio" (div cache_hits (cache_hits +. cache_misses));
    m "pool.compiled_hit_ratio" (div ch (ch +. cm));
    m "pool.flushes_per_update" (div (c "policy_cache.flushes") updates);
    m "span.set_policy_wall_us"
      (span_stat "registry.set_policy" (fun a -> a.Spans.a_wall_p50_ns /. 1e3));
    m "vmem.faults_per_session" (div (c "vmem.faults") sessions);
    m "vmem.peer_share_faults_per_session" (div (c "vmem.peer_share_faults") sessions);
    m "vmem.pages_mapped_per_session" (div (c "vmem.pages_mapped") sessions);
    m "trace.wall_kcalls_s" wall_kcalls_s;
    m "trace.overhead_frac" overhead;
  ]

(* The traced mode's metrics: counters from its untraced headline rep,
   spans from its traced one. *)
let traced_metrics (t : M.traced) (w : W.t) =
  let untraced = M.wall_rate t.M.t_untraced in
  let overhead = 1.0 -. (M.wall_rate t.M.t_traced /. untraced) in
  per_layer_metrics w t.M.t_headline
    ~spans:(Some (Spans.aggregates t.M.t_spans))
    ~wall_kcalls_s:untraced ~overhead

(* ------------------------------------------------------------------ *)
(* Correctness of a whole run                                          *)
(* ------------------------------------------------------------------ *)

(* The reps whose ops count as attempted: the light and headline reps of
   an untraced run, the untraced headline rep of a traced one.  Probes
   are searches, not service, and are not counted. *)
let scored_reps (run : M.t) =
  match run.M.mode with
  | M.Untraced u -> [ u.M.light; u.M.headline ]
  | M.Traced t -> [ t.M.t_headline ]

let attempted run = List.fold_left (fun acc (r : L.rep) -> acc + r.L.n) 0 (scored_reps run)
let failed run = List.fold_left (fun acc r -> acc + L.failed r) 0 (scored_reps run)

(* Wrong results anywhere — probes included — make a run incorrect, as
   does any simulated difference between reps that should be identical.
   An op that merely missed the drain deadline is failed, not wrong. *)
let correct (run : M.t) =
  let wrong =
    List.fold_left (fun acc (r : L.rep) -> acc + r.L.wrong) 0 (scored_reps run)
    +
    match run.M.mode with
    | M.Untraced u -> List.fold_left (fun acc p -> acc + p.M.p_wrong) 0 u.M.probes
    | M.Traced _ -> 0
  in
  run.M.identical && wrong = 0

let metrics (run : M.t) =
  match run.M.mode with
  | M.Untraced u -> end_to_end_metrics u
  | M.Traced t -> traced_metrics t run.M.workload
