(* Tests for Smod_sim (clock, cost model, trace) and the Smod_bench_kit
   harness (trial runner, benchmark world). *)

module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Trace = Smod_sim.Trace
open Smod_bench_kit

(* ---------------------------- cost model ---------------------------- *)

let test_calibration_anchor () =
  (* DESIGN.md's anchor: native getpid = 394 cycles = 0.658 us. *)
  let total = Cost.cycles Cost.Trap_enter +. Cost.cycles Cost.Getpid_body +. Cost.cycles Cost.Trap_exit in
  Alcotest.(check (float 0.001)) "394 cycles" 394.0 total;
  Alcotest.(check (float 0.0005)) "0.658 us" 0.658 (Cost.us_of_cycles total)

let test_cycles_per_us () =
  Alcotest.(check (float 1e-9)) "599 MHz" 599.0 Cost.cycles_per_us;
  Alcotest.(check (float 1e-9)) "1 us" 1.0 (Cost.us_of_cycles 599.0)

let test_copy_cost_linear () =
  let c n = Cost.cycles (Cost.Copy_bytes n) in
  Alcotest.(check bool) "monotone" true (c 100 < c 1000 && c 1000 < c 10000);
  Alcotest.(check (float 1e-6)) "linear increment" (c 2000 -. c 1000) (c 3000 -. c 2000)

let test_all_costs_positive () =
  List.iter
    (fun op ->
      Alcotest.(check bool) (Cost.describe op ^ " > 0") true (Cost.cycles op > 0.0))
    [
      Cost.Trap_enter; Cost.Trap_exit; Cost.Getpid_body; Cost.Getpid_client_fixup;
      Cost.Context_switch; Cost.Sched_enqueue; Cost.Sched_wakeup; Cost.Msgq_send;
      Cost.Msgq_recv; Cost.Copy_bytes 1; Cost.Page_map; Cost.Page_unmap; Cost.Page_protect;
      Cost.Tlb_flush; Cost.Page_fault_resolve; Cost.Peer_share_fault; Cost.Cred_check;
      Cost.Registry_lookup; Cost.Policy_always_allow; Cost.Policy_counter_check;
      Cost.Keynote_assertion_eval; Cost.Stub_push_args 1; Cost.Stub_receive; Cost.Stub_return;
      Cost.Fork_base; Cost.Exec_base; Cost.Aes_block; Cost.Aes_key_schedule;
      Cost.Sha256_block; Cost.Xdr_encode_word; Cost.Xdr_decode_word; Cost.Xdr_bytes 1;
      Cost.Udp_send_stack; Cost.Udp_recv_stack; Cost.Socket_op; Cost.Rpc_dispatch;
      Cost.Svm_instr; Cost.Native_call_overhead;
    ]

let test_describe_distinct () =
  let names = List.map Cost.describe [ Cost.Trap_enter; Cost.Trap_exit; Cost.Msgq_send ] in
  Alcotest.(check int) "distinct labels" 3 (List.length (List.sort_uniq compare names))

(* ------------------------------ clock ------------------------------- *)

let test_clock_exact_when_jitter_zero () =
  let c = Clock.create ~jitter:0.0 () in
  Clock.charge c Cost.Trap_enter;
  Clock.charge c Cost.Trap_exit;
  Alcotest.(check (float 1e-9)) "sum exact" 340.0 (Clock.now_cycles c)

let test_clock_jitter_bounded () =
  let c = Clock.create ~jitter:0.02 () in
  for _ = 1 to 100 do
    Clock.charge c Cost.Trap_enter
  done;
  let total = Clock.now_cycles c in
  Alcotest.(check bool) "within jitter band" true
    (total > 170.0 *. 100.0 *. 0.98 && total < 170.0 *. 100.0 *. 1.02)

let test_clock_charge_n_batches () =
  let a = Clock.create ~jitter:0.0 () and b = Clock.create ~jitter:0.0 () in
  Clock.charge_n a Cost.Svm_instr 1000;
  for _ = 1 to 1000 do
    Clock.charge b Cost.Svm_instr
  done;
  Alcotest.(check (float 1e-6)) "same total" (Clock.now_cycles b) (Clock.now_cycles a)

let test_clock_reset_and_elapsed () =
  let c = Clock.create ~jitter:0.0 () in
  Clock.charge c Cost.Context_switch;
  let mark = Clock.now_cycles c in
  Clock.charge c Cost.Context_switch;
  Alcotest.(check (float 1e-9)) "elapsed" (Cost.us_of_cycles 800.0) (Clock.elapsed_us c ~since:mark);
  Clock.reset c;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Clock.now_cycles c)

let test_clock_deterministic_across_runs () =
  let run () =
    let c = Clock.create ~seed:99L ~jitter:0.02 () in
    for _ = 1 to 50 do
      Clock.charge c Cost.Msgq_send
    done;
    Clock.now_cycles c
  in
  Alcotest.(check (float 1e-12)) "same seed same time" (run ()) (run ())

(* ------------------------------ trace ------------------------------- *)

let test_trace_order_and_labels () =
  let c = Clock.create ~jitter:0.0 () in
  let t = Trace.create ~render:Fun.id () in
  Trace.emit t ~clock:c ~actor:"a" "first";
  Clock.charge c Cost.Trap_enter;
  Trace.emit t ~clock:c ~actor:"b" (Printf.sprintf "second %d" 2);
  Alcotest.(check (list string)) "labels in order" [ "first"; "second 2" ] (Trace.labels t);
  let events = Trace.events t in
  Alcotest.(check bool) "timestamps increase" true
    ((List.nth events 0).Trace.timestamp_us < (List.nth events 1).Trace.timestamp_us)

let test_trace_capacity_drops_oldest () =
  let c = Clock.create () in
  let emit t n = Trace.emit t ~clock:c ~actor:"x" (string_of_int n) in
  let labels_from lo hi = List.init (hi - lo + 1) (fun i -> string_of_int (lo + i)) in
  let t = Trace.create ~capacity:3 ~render:Fun.id () in
  List.iter (emit t) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list string)) "last three" [ "3"; "4"; "5" ] (Trace.labels t);
  (* The ring grows in steps and then wraps many times over; after every
     emit it holds exactly the newest [capacity] events, oldest first. *)
  let t = Trace.create ~capacity:100 ~render:Fun.id () in
  for n = 1 to 1000 do
    emit t n;
    Alcotest.(check (list string))
      (Printf.sprintf "after %d emits" n)
      (labels_from (max 1 (n - 99)) n)
      (Trace.labels t)
  done;
  Trace.clear t;
  Alcotest.(check (list string)) "clear after wrap-around" [] (Trace.labels t);
  List.iter (emit t) [ 1; 2 ];
  Alcotest.(check (list string)) "refills from empty" [ "1"; "2" ] (Trace.labels t);
  let t = Trace.create ~capacity:1 ~render:Fun.id () in
  List.iter (emit t) [ 1; 2; 3 ];
  Alcotest.(check (list string)) "capacity 1 keeps the newest" [ "3" ] (Trace.labels t)

let test_trace_disable () =
  let c = Clock.create () in
  let t = Trace.create ~enabled:false ~render:Fun.id () in
  Trace.emit t ~clock:c ~actor:"x" "ignored";
  Alcotest.(check (list string)) "nothing recorded" [] (Trace.labels t);
  Trace.enable t;
  Trace.emit t ~clock:c ~actor:"x" "kept";
  Alcotest.(check (list string)) "recorded after enable" [ "kept" ] (Trace.labels t)

let test_trace_clear () =
  let c = Clock.create () in
  let t = Trace.create ~render:Fun.id () in
  Trace.emit t ~clock:c ~actor:"x" "gone";
  Trace.clear t;
  Alcotest.(check (list string)) "cleared" [] (Trace.labels t)

(* ------------------------------ trial ------------------------------- *)

let test_trial_mean_of_constant_charge () =
  let clock = Clock.create ~jitter:0.0 () in
  let spec = { Trial.name = "x"; calls_per_trial = 100; trials = 5; warmup = 10 } in
  let row = Trial.run ~clock ~noise:0.0 spec (fun _ -> Clock.charge clock Cost.Trap_enter) in
  Alcotest.(check (float 1e-6)) "mean = one trap" (Cost.us_of_cycles 170.0) row.Trial.mean_us;
  Alcotest.(check (float 1e-9)) "no noise, no spread" 0.0 row.Trial.stdev_us;
  Alcotest.(check int) "trials recorded" 5 (Array.length row.Trial.trial_means)

let test_trial_noise_gives_spread () =
  let clock = Clock.create ~jitter:0.0 () in
  let spec = { Trial.name = "x"; calls_per_trial = 50; trials = 10; warmup = 0 } in
  let row = Trial.run ~clock ~noise:0.05 spec (fun _ -> Clock.charge clock Cost.Trap_enter) in
  Alcotest.(check bool) "nonzero stdev" true (row.Trial.stdev_us > 0.0);
  Alcotest.(check bool) "stdev below 20% of mean" true
    (row.Trial.stdev_us < 0.2 *. row.Trial.mean_us)

let test_trial_warmup_not_measured () =
  let clock = Clock.create ~jitter:0.0 () in
  let calls = ref [] in
  let spec = { Trial.name = "x"; calls_per_trial = 3; trials = 1; warmup = 2 } in
  ignore (Trial.run ~clock ~noise:0.0 spec (fun i -> calls := i :: !calls));
  (* warmup indices are negative by convention *)
  Alcotest.(check (list int)) "warmup then trial" [ -1; -2; 0; 1; 2 ] (List.rev !calls)

let test_figure8_table_format () =
  let clock = Clock.create ~jitter:0.0 () in
  let spec = { Trial.name = "getpid()"; calls_per_trial = 1_000_000; trials = 10; warmup = 0 } in
  let row = Trial.run ~clock ~noise:0.0 { spec with Trial.calls_per_trial = 10 } (fun _ -> ()) in
  let row = { row with Trial.spec } in
  let s = Trial.figure8_table [ row ] in
  let contains needle =
    let n = String.length s and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub s i m = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "comma formatting" true (contains "1,000,000");
  Alcotest.(check bool) "header" true (contains "microsec/CALL");
  Alcotest.(check bool) "stdev column" true (contains "stdev(microsec)")

(* ------------------------------ world ------------------------------- *)

let test_world_smoke () =
  let world = World.create ~jitter:0.0 () in
  let ran = ref false in
  World.spawn_seclibc_client world ~name:"w" (fun _p conn ->
      ran := Smod_libc.Seclibc.Client.test_incr conn 1 = 2);
  World.run world;
  Alcotest.(check bool) "client ran through seclibc" true !ran

let test_world_rpc_available () =
  let world = World.create ~jitter:0.0 () in
  let got = ref 0 in
  World.spawn_seclibc_client world ~name:"w" (fun p _conn ->
      let c = World.rpc_client world p ~client_port:46000 in
      got := Smod_rpc.Testincr.incr c 9);
  World.run world;
  Alcotest.(check int) "rpc server answers" 10 !got

let test_world_without_rpc () =
  let world = World.create ~with_rpc:false () in
  World.run world;
  Alcotest.(check bool) "no daemons to run" true true

(* ----------------------------- fast path ---------------------------- *)

let test_e14_fast_path_gain () =
  let entries = Ablations.fast_path ~calls:400 ~trials:3 () in
  match entries with
  | [ slow; fast ] ->
      Alcotest.(check bool)
        (Printf.sprintf "fast %.3f < slow %.3f" fast.Ablations.mean_us slow.Ablations.mean_us)
        true
        (fast.Ablations.mean_us < slow.Ablations.mean_us);
      (* the gain is the hoisted cred-check + policy charge, a few hundred
         nanoseconds — visible but not transformative, as §5 implies *)
      let gain = slow.Ablations.mean_us -. fast.Ablations.mean_us in
      Alcotest.(check bool) (Printf.sprintf "gain %.3f in (0.1, 1.0) us" gain) true
        (gain > 0.1 && gain < 1.0)
  | _ -> Alcotest.fail "expected two entries"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sim"
    [
      ( "cost model",
        [
          tc "getpid calibration anchor" test_calibration_anchor;
          tc "cycles per us" test_cycles_per_us;
          tc "copy cost linear" test_copy_cost_linear;
          tc "all costs positive" test_all_costs_positive;
          tc "describe labels" test_describe_distinct;
        ] );
      ( "clock",
        [
          tc "exact with zero jitter" test_clock_exact_when_jitter_zero;
          tc "jitter bounded" test_clock_jitter_bounded;
          tc "charge_n batches" test_clock_charge_n_batches;
          tc "reset and elapsed" test_clock_reset_and_elapsed;
          tc "deterministic per seed" test_clock_deterministic_across_runs;
        ] );
      ( "trace",
        [
          tc "order and labels" test_trace_order_and_labels;
          tc "capacity ring" test_trace_capacity_drops_oldest;
          tc "disable/enable" test_trace_disable;
          tc "clear" test_trace_clear;
        ] );
      ( "trial runner",
        [
          tc "mean of constant charge" test_trial_mean_of_constant_charge;
          tc "noise gives spread" test_trial_noise_gives_spread;
          tc "warmup not measured" test_trial_warmup_not_measured;
          tc "figure8 table format" test_figure8_table_format;
        ] );
      ( "world",
        [
          tc "seclibc client" test_world_smoke;
          tc "rpc baseline up" test_world_rpc_available;
          tc "without rpc" test_world_without_rpc;
        ] );
      ("fast path (E14)", [ tc "measurable gain" test_e14_fast_path_gain ]);
    ]
