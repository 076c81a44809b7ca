(* Integration tests: the paper's quantitative claims, asserted as shape
   constraints on the simulated measurements (see EXPERIMENTS.md for the
   paper-vs-measured record). *)

module M = Smod_kern.Machine
open Smod_bench_kit

let mini_config = { Figure8.smod_calls = 3_000; rpc_calls = 600; trials = 4; noise = 0.0 }

let figure8_rows = lazy (Figure8.run mini_config)

let row name =
  match
    List.find_opt (fun (r : Trial.row) -> r.Trial.spec.Trial.name = name) (Lazy.force figure8_rows)
  with
  | Some r -> r
  | None -> Alcotest.failf "row %s missing" name

let test_figure8_has_four_rows () =
  Alcotest.(check int) "rows" 4 (List.length (Lazy.force figure8_rows))

let test_getpid_near_paper () =
  let r = row "getpid()" in
  (* paper: 0.658 us; accept +-10% *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f in [0.59,0.73]" r.Trial.mean_us)
    true
    (r.Trial.mean_us > 0.59 && r.Trial.mean_us < 0.73)

let test_smod_vs_getpid_ratio () =
  let smod = row "SMOD(test-incr)" and getpid = row "getpid()" in
  let ratio = smod.Trial.mean_us /. getpid.Trial.mean_us in
  (* paper: 9.74x; the claim is "about 10x a syscall" *)
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f in [7,13]" ratio) true
    (ratio > 7.0 && ratio < 13.0)

let test_rpc_vs_smod_ratio () =
  let rpc = row "RPC(test-incr)" and smod = row "SMOD(test-incr)" in
  let ratio = rpc.Trial.mean_us /. smod.Trial.mean_us in
  (* paper: 9.87x — "roughly 10 times faster than ... RPC" *)
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f in [7,13]" ratio) true
    (ratio > 7.0 && ratio < 13.0)

let test_smod_getpid_slightly_slower () =
  let g = row "SMOD(SMOD-getpid)" and i = row "SMOD(test-incr)" in
  let gap = g.Trial.mean_us -. i.Trial.mean_us in
  (* paper: +0.125 us; assert positive and under 1 us *)
  Alcotest.(check bool) (Printf.sprintf "gap %.3f in (0, 1)" gap) true (gap > 0.0 && gap < 1.0)

let test_smod_absolute_band () =
  let smod = row "SMOD(test-incr)" in
  (* paper: 6.407 us; accept +-15% *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f in [5.4,7.4]" smod.Trial.mean_us)
    true
    (smod.Trial.mean_us > 5.4 && smod.Trial.mean_us < 7.4)

let test_rpc_absolute_band () =
  let rpc = row "RPC(test-incr)" in
  (* paper: 63.23 us; accept +-15% *)
  Alcotest.(check bool)
    (Printf.sprintf "%.2f in [53,73]" rpc.Trial.mean_us)
    true
    (rpc.Trial.mean_us > 53.0 && rpc.Trial.mean_us < 73.0)

let test_stdev_small_relative_to_mean () =
  List.iter
    (fun (r : Trial.row) ->
      Alcotest.(check bool)
        (r.Trial.spec.Trial.name ^ " cv < 10%")
        true
        (r.Trial.stdev_us /. r.Trial.mean_us < 0.10))
    (Lazy.force figure8_rows)

(* ------------------------------- E9 -------------------------------- *)

let test_policy_ablation_monotone () =
  let entries = Ablations.policy_ablation ~calls:400 ~trials:3 () in
  let find label =
    (List.find (fun (e : Ablations.entry) -> e.Ablations.label = label) entries)
      .Ablations.mean_us
  in
  Alcotest.(check bool) "quota >= always" true (find "call-quota" >= find "always-allow");
  Alcotest.(check bool) "keynote-1 > always" true (find "keynote-1" > find "always-allow");
  Alcotest.(check bool) "keynote-4 > keynote-1" true (find "keynote-4" > find "keynote-1");
  Alcotest.(check bool) "keynote-16 > keynote-4" true (find "keynote-16" > find "keynote-4");
  (* The section-5 prediction: the slowdown is roughly proportional to the
     number of assertions evaluated. *)
  let k1 = find "keynote-1" and k4 = find "keynote-4" and k16 = find "keynote-16" in
  let base = find "always-allow" in
  let per_assertion_4 = (k4 -. k1) /. 3.0 and per_assertion_16 = (k16 -. k4) /. 12.0 in
  ignore base;
  Alcotest.(check bool) "linear-ish in assertions" true
    (Float.abs (per_assertion_4 -. per_assertion_16) /. per_assertion_4 < 0.3)

(* ------------------------------- E10 ------------------------------- *)

let test_marshal_crossover () =
  let entries = Ablations.marshal_ablation ~calls:200 ~payload_sizes:[ 64; 65536 ] () in
  let find label =
    (List.find (fun (e : Ablations.entry) -> e.Ablations.label = label) entries)
      .Ablations.mean_us
  in
  let shared_small = find "shared-stack     64 B" and shared_big = find "shared-stack  65536 B" in
  let copy_small = find "copy-marshal     64 B" and copy_big = find "copy-marshal  65536 B" in
  (* Sharing is size-independent; copying grows dramatically. *)
  Alcotest.(check bool) "shared flat" true
    (Float.abs (shared_big -. shared_small) /. shared_small < 0.15);
  Alcotest.(check bool) "copying grows >10x" true (copy_big > copy_small *. 10.0);
  Alcotest.(check bool) "copying loses at 64k" true (copy_big > shared_big *. 5.0)

(* ------------------------------- E11 ------------------------------- *)

let test_protection_establishment_costs () =
  let entries = Ablations.protection_ablation ~text_sizes:[ 4096; 262144 ] ~trials:2 () in
  let find prefix size =
    (List.find
       (fun (e : Ablations.entry) ->
         e.Ablations.label = Printf.sprintf "%s %7d B text" prefix size)
       entries)
      .Ablations.mean_us
  in
  Alcotest.(check bool) "encryption costs more" true
    (find "encrypted" 4096 > find "unmap-only" 4096);
  (* AES work scales with text size much faster than the unmap path. *)
  let enc_growth = find "encrypted" 262144 /. find "encrypted" 4096 in
  let unmap_growth = find "unmap-only" 262144 /. find "unmap-only" 4096 in
  Alcotest.(check bool) "encrypted scales worse" true (enc_growth > unmap_growth *. 2.0)

(* ------------------------------- E12 ------------------------------- *)

let test_handle_sharing_queue_depth () =
  let entries = Ablations.handle_sharing ~clients:[ 1; 4 ] ~calls_per_client:100 () in
  let find label =
    (List.find (fun (e : Ablations.entry) -> e.Ablations.label = label) entries)
      .Ablations.mean_us
  in
  Alcotest.(check (float 0.001)) "private handles never queue" 0.0
    (find "4 clients, own handles");
  Alcotest.(check bool) "shared handle queues" true (find "4 clients, shared handle" > 0.5)

(* ------------------------------- E13 ------------------------------- *)

let test_toctou_costs_ordered () =
  let entries = Ablations.toctou_cost ~calls:300 ~trials:3 () in
  let find label =
    (List.find (fun (e : Ablations.entry) -> e.Ablations.label = label) entries)
      .Ablations.mean_us
  in
  let none = find "no mitigation" in
  let dequeue = find "dequeue client threads" in
  let unmap = find "unmap during call" in
  Alcotest.(check bool) "both mitigations cost something" true
    (dequeue > none && unmap > none);
  (* §4.4: dequeuing "has the benefit of lesser overhead for the kernel". *)
  Alcotest.(check bool) "dequeue cheaper than unmap" true (dequeue < unmap)

(* --------------------------- whole-system --------------------------- *)

let test_trace_example_sequence () =
  (* The Figure-1 sequence as an assertable event stream: the whole
     typed trace, in order.  The client's find, the handle's handle_info
     and the first call are not traced. *)
  let world = World.create ~with_rpc:false () in
  let ids = ref None in
  World.spawn_seclibc_client world ~name:"it-client" (fun p conn ->
      let client = p.Smod_kern.Proc.pid in
      let session =
        Option.get (Secmodule.Smod.session_of_client world.World.smod ~client_pid:client)
      in
      ids := Some (client, session.Secmodule.Smod.handle_pid, Secmodule.Stub.session_id conn);
      ignore (Smod_libc.Seclibc.Client.malloc conn 16));
  World.run world;
  let client, handle, sid = Option.get !ids in
  let handle_name = Printf.sprintf "smod-handle-%d" sid in
  let module_name = Smod_libc.Seclibc.module_name in
  let event = Alcotest.testable (Fmt.of_to_string M.render_event) ( = ) in
  let trace = M.trace world.World.machine in
  Alcotest.(check (list event))
    "forced fork, start_session, session_info, detach, client exit, handle exit"
    [
      M.Forced_fork { parent = "it-client"; child = handle; name = handle_name };
      M.Start_session { sid; module_name; client; handle };
      M.Session_info { client; handle };
      M.Detach_session { sid; module_name };
      M.Exit (Smod_kern.Sched.Exited 0);
      M.Exit (Smod_kern.Sched.Signaled Smod_kern.Signal.sigkill);
    ]
    (Smod_sim.Trace.values trace);
  Alcotest.(check (list string))
    "actors"
    [ "kernel"; "kernel"; handle_name; "kernel"; "it-client"; handle_name ]
    (List.map (fun e -> e.Smod_sim.Trace.actor) (Smod_sim.Trace.events trace))

let test_one_dispatch_metric_deltas () =
  (* One steady-state SMOD dispatch, counted by the lib/metrics
     instrumentation: the client traps once, the request and reply each
     cross a message queue (2 sends + 2 receives), the scheduler switches
     client->handle->client, the policy is checked once, and the handle
     runs at least one VM instruction. *)
  let counter name =
    match Smod_metrics.counter_value name with
    | Some v -> v
    | None -> Alcotest.failf "counter %s not registered" name
  in
  let watched =
    [
      "kern.context_switches";
      "kern.msgq_sends";
      "kern.msgq_recvs";
      "kern.syscalls";
      "secmodule.calls";
      "secmodule.policy_checks";
      "svm.instructions";
    ]
  in
  let deltas = ref [] in
  let world = World.create ~with_rpc:false () in
  World.spawn_seclibc_client world ~name:"metrics-client" (fun _p conn ->
      (* Warm up: session handshake and first-touch page faults happen
         here, leaving the measured call in steady state. *)
      ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
      let before = List.map (fun n -> (n, counter n)) watched in
      ignore (Smod_libc.Seclibc.Client.test_incr conn 2);
      deltas := List.map (fun (n, b) -> (n, counter n - b)) before);
  World.run world;
  let delta name =
    match List.assoc_opt name !deltas with
    | Some d -> d
    | None -> Alcotest.failf "no delta for %s" name
  in
  Alcotest.(check int) "2 context switches" 2 (delta "kern.context_switches");
  Alcotest.(check int) "2 msgq sends" 2 (delta "kern.msgq_sends");
  Alcotest.(check int) "2 msgq recvs" 2 (delta "kern.msgq_recvs");
  Alcotest.(check int) "1 kernel trap" 1 (delta "kern.syscalls");
  Alcotest.(check int) "1 dispatched call" 1 (delta "secmodule.calls");
  Alcotest.(check int) "1 policy evaluation" 1 (delta "secmodule.policy_checks");
  Alcotest.(check bool)
    (Printf.sprintf "%d svm instructions > 0" (delta "svm.instructions"))
    true
    (delta "svm.instructions" > 0);
  (* The histogram saw exactly the calls this world dispatched. *)
  match Smod_metrics.histogram_sample "secmodule.call_us" with
  | None -> Alcotest.fail "secmodule.call_us not registered"
  | Some h -> Alcotest.(check bool) "call_us populated" true (h.Smod_metrics.hs_count >= 2)

let test_one_batch_metric_deltas () =
  (* The ring twin of "one dispatch, counted": a steady-state 16-call
     batch through the dispatch ring pays ONE trap, at most two context
     switches (client->handle->client), ONE policy evaluation, and zero
     message-queue traffic — the per-call costs the msgq path pays 16
     times over are amortised across the batch. *)
  let counter name =
    match Smod_metrics.counter_value name with
    | Some v -> v
    | None -> Alcotest.failf "counter %s not registered" name
  in
  let watched =
    [
      "kern.context_switches";
      "kern.msgq_sends";
      "kern.msgq_recvs";
      "kern.syscalls";
      "secmodule.calls";
      "secmodule.policy_checks";
      "ring.batches";
      "ring.submits";
    ]
  in
  let batch = 16 in
  let argss = List.init batch (fun i -> [| i |]) in
  let deltas = ref [] in
  let world = World.create ~with_rpc:false () in
  World.spawn_seclibc_client world ~name:"ring-metrics-client" (fun _p conn ->
      (* Warm up: arm the ring, bounce the handle out of the legacy
         msgrcv loop and fault in the pages; the measured batch then
         runs pure fast path. *)
      ignore (Secmodule.Stub.call_batch conn ~func:"test_incr" argss);
      let before = List.map (fun n -> (n, counter n)) watched in
      let results = Secmodule.Stub.call_batch conn ~func:"test_incr" argss in
      deltas := List.map (fun (n, b) -> (n, counter n - b)) before;
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i + 1) v
          | Error (_, m) -> Alcotest.failf "slot %d failed: %s" i m)
        results);
  World.run world;
  let delta name =
    match List.assoc_opt name !deltas with
    | Some d -> d
    | None -> Alcotest.failf "no delta for %s" name
  in
  Alcotest.(check int) "1 kernel trap for the whole batch" 1 (delta "kern.syscalls");
  Alcotest.(check bool)
    (Printf.sprintf "%d context switches <= 2" (delta "kern.context_switches"))
    true
    (delta "kern.context_switches" <= 2);
  Alcotest.(check int) "0 msgq sends on the fast path" 0 (delta "kern.msgq_sends");
  Alcotest.(check int) "0 msgq recvs on the fast path" 0 (delta "kern.msgq_recvs");
  Alcotest.(check int) "16 dispatched calls" batch (delta "secmodule.calls");
  Alcotest.(check int) "1 policy evaluation per batch" 1 (delta "secmodule.policy_checks");
  Alcotest.(check int) "1 ring batch" 1 (delta "ring.batches");
  Alcotest.(check int) "16 ring submits" batch (delta "ring.submits")

(* The engine twin of "one dispatch, counted": one steady-state call per
   KeyNote engine, counted exactly.  The e2e keynote.*_per_call metrics
   are computed from these counters.  The policy is a quota composite, so
   every ring slot is its own vector lane (no per-function dedup); its
   KeyNote arm has one function-reading rung (the per-slot residue) and
   one batch-invariant rung (the fused prefix). *)
let test_one_call_per_engine_metric_deltas () =
  let counter name =
    match Smod_metrics.counter_value name with
    | Some v -> v
    | None -> Alcotest.failf "counter %s not registered" name
  in
  let watched =
    [
      "keynote.compiled_runs";
      "keynote.compiled_ops";
      "keynote.fused_batches";
      "keynote.fused_slots";
      "keynote.fused_ops";
      "keynote.vector_batches";
      "keynote.vector_lanes";
      "keynote.vector_passes";
      "keynote.vector_units";
      "secmodule.policy_checks";
    ]
  in
  let rung cond =
    Smod_keynote.Parse.assertion_of_string
      (Printf.sprintf
         "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
          conditions: %s -> \"allow\";\n"
         cond)
  in
  let policy =
    Secmodule.Policy.All_of
      [
        Secmodule.Policy.Call_quota 1_000;
        Secmodule.Policy.Keynote
          {
            policy =
              [
                rung "module == \"seclibc\" && function != \"abs\"";
                rung "module == \"seclibc\" && clause == 1";
              ];
            levels = [| "deny"; "allow" |];
            min_level = "allow";
            attrs = [];
          };
      ]
  in
  let measure ~fuse ~vectorize call =
    let world = World.create ~with_rpc:false ~policy () in
    let smod = world.World.smod in
    Secmodule.Smod.set_policy_compile smod true;
    Secmodule.Smod.set_policy_fuse smod fuse;
    Secmodule.Smod.set_policy_vectorize smod vectorize;
    let deltas = ref [] in
    World.spawn_seclibc_client world ~name:"engine-client" (fun _p conn ->
        (* Warm up: compile, plan, arm the fused context and the ring. *)
        call conn;
        let before = List.map (fun n -> (n, counter n)) watched in
        call conn;
        deltas := List.map (fun (n, b) -> (n, counter n - b)) before);
    World.run world;
    !deltas
  in
  let check label expected deltas =
    List.iter2
      (fun want (name, got) -> Alcotest.(check int) (label ^ ": " ^ name) want got)
      expected deltas
  in
  let msgq conn = ignore (Smod_libc.Seclibc.Client.test_incr conn 1) in
  let ring conn =
    List.iteri
      (fun i r ->
        match r with
        | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i + 1) v
        | Error (_, m) -> Alcotest.failf "slot %d failed: %s" i m)
      (Secmodule.Stub.call_batch conn ~func:"test_incr" (List.init 16 (fun i -> [| i |])))
  in
  (* Columns in [watched] order.  Compiled: the whole program, 13 ops.
     Fused: the snapshot armed in warm-up serves the call, which replays a
     6-op residue.  Vectorized: 16 lanes on one path of 6 positions, each
     pass ceil(16/8) = 2 units; the quota arm checks every lane. *)
  check "compiled msgq call" [ 1; 13; 0; 0; 0; 0; 0; 0; 0; 1 ]
    (measure ~fuse:false ~vectorize:false msgq);
  check "fused msgq call" [ 0; 0; 0; 1; 6; 0; 0; 0; 0; 1 ]
    (measure ~fuse:true ~vectorize:false msgq);
  check "vectorized 16-lane ring batch" [ 0; 0; 0; 0; 0; 1; 16; 6; 12; 16 ]
    (measure ~fuse:true ~vectorize:true ring)

let test_ring_beats_msgq () =
  (* The E18 headline, asserted as a test: at batch 16 the ring is at
     least 3x faster per call than the legacy msgq transport, in the
     same world on the same clock. *)
  let world = World.create ~with_rpc:false () in
  let clock = M.clock world.World.machine in
  let batch = 16 and rounds = 30 in
  let argss = List.init batch (fun i -> [| i |]) in
  let msgq_us = ref 0.0 and ring_us = ref 0.0 in
  World.spawn_seclibc_client world ~name:"ring-race-client" (fun _p conn ->
      let time f =
        let t0 = Smod_sim.Clock.now_cycles clock in
        for _ = 1 to rounds do
          f ()
        done;
        Smod_sim.Clock.elapsed_us clock ~since:t0 /. float_of_int (rounds * batch)
      in
      (* Warm both paths before timing either. *)
      ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
      msgq_us :=
        time (fun () ->
            List.iter
              (fun args -> ignore (Secmodule.Stub.call conn ~func:"test_incr" args))
              argss);
      ignore (Secmodule.Stub.call_batch conn ~func:"test_incr" argss);
      ring_us :=
        time (fun () -> ignore (Secmodule.Stub.call_batch conn ~func:"test_incr" argss)));
  World.run world;
  let ratio = !msgq_us /. !ring_us in
  Alcotest.(check bool)
    (Printf.sprintf "msgq %.3f us / ring %.3f us = %.2fx >= 3x" !msgq_us !ring_us ratio)
    true (ratio >= 3.0)

let test_many_sessions_frames_released () =
  Install_paths.check_release_conserves (World.create ~with_rpc:false ())
    ~call:Smod_libc.Seclibc.Client.malloc

(* Simulated memory must not depend on the host's heap history.  Every
   world's client reads the payload of its first malloc before writing a
   marker there; each earlier world wrote that marker at the same
   address, into a frame the host may hand to the next world. *)
let test_successive_worlds_start_zeroed () =
  let marker = 0xDEADBEEF and last_ptr = ref None in
  for world_no = 1 to 8 do
    Gc.full_major ();
    let world = World.create ~with_rpc:false () in
    let ptr = ref 0 and seen = ref (-1) in
    World.spawn_seclibc_client world ~name:"heap-reader" (fun p conn ->
        let aspace = p.Smod_kern.Proc.aspace in
        ptr := Smod_libc.Seclibc.Client.malloc conn 64;
        seen := Smod_vmem.Aspace.read_word aspace ~addr:!ptr;
        Smod_vmem.Aspace.write_word aspace ~addr:!ptr marker);
    World.run world;
    Option.iter (Alcotest.(check int) "same heap word as the previous world" !ptr) !last_ptr;
    last_ptr := Some !ptr;
    Alcotest.(check int) (Printf.sprintf "world %d reads zero" world_no) 0 !seen
  done

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration"
    [
      ( "figure8 shape",
        [
          tc "four rows" test_figure8_has_four_rows;
          tc "getpid near paper" test_getpid_near_paper;
          tc "SMOD ~10x getpid" test_smod_vs_getpid_ratio;
          tc "RPC ~10x SMOD" test_rpc_vs_smod_ratio;
          tc "SMOD-getpid slightly slower" test_smod_getpid_slightly_slower;
          tc "SMOD absolute band" test_smod_absolute_band;
          tc "RPC absolute band" test_rpc_absolute_band;
          tc "stdev sane" test_stdev_small_relative_to_mean;
        ] );
      ( "ablations",
        [
          tc "E9 policy monotone + linear" test_policy_ablation_monotone;
          tc "E10 marshal crossover" test_marshal_crossover;
          tc "E11 protection costs" test_protection_establishment_costs;
          tc "E12 shared-handle queueing" test_handle_sharing_queue_depth;
          tc "E13 mitigation costs ordered" test_toctou_costs_ordered;
        ] );
      ( "whole system",
        [
          tc "figure-1 trace sequence" test_trace_example_sequence;
          tc "one dispatch, counted" test_one_dispatch_metric_deltas;
          tc "one batch, counted (ring twin)" test_one_batch_metric_deltas;
          tc "one call per engine, counted" test_one_call_per_engine_metric_deltas;
          tc "ring >= 3x msgq at batch 16" test_ring_beats_msgq;
          tc "no frame leaks across sessions" test_many_sessions_frames_released;
          tc "successive worlds start zeroed" test_successive_worlds_start_zeroed;
        ] );
    ]
