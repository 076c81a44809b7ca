(* Zero-trap data path tests (E22): the SQPOLL-style kernel poller and
   the effects-based handle multiplexer.  Trust-model cases first — a
   stale Submitted slot forged after detach is dropped, not executed;
   geometry forgery stays EINVAL when the doorbell (not the batch trap)
   does the binding — then the park/wake accounting and the headline
   integration twin: one batch served end to end with zero client
   traps. *)

module M = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Sysno = Smod_kern.Sysno
module Sched = Smod_kern.Sched
module Aspace = Smod_vmem.Aspace
module Ring = Smod_ring.Ring
open Smod_bench_kit
open Secmodule

(* A world with the whole zero-trap path switched on: kernel poller
   sweeping rings, new sessions routed onto the effects multiplexer. *)
let poller_world () =
  let world = World.create ~with_rpc:false () in
  Smod.set_kernel_poller world.World.smod true;
  Smod.set_session_mux world.World.smod true;
  world

let all_ok rs =
  List.iteri
    (fun i r ->
      match r with Ok _ -> () | Error (_, msg) -> Alcotest.failf "slot %d: %s" i msg)
    rs

(* ------------------------- knob plumbing --------------------------- *)

let test_spin_budget_knob () =
  let world = World.create ~with_rpc:false () in
  let smod = world.World.smod in
  Alcotest.(check int) "default spin budget" 4 (Smod.spin_budget smod);
  Smod.set_spin_budget smod 9;
  Alcotest.(check int) "updated" 9 (Smod.spin_budget smod);
  (match Smod.set_spin_budget smod 0 with
  | () -> Alcotest.fail "spin budget 0 accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "rejected value did not stick" 9 (Smod.spin_budget smod)

(* ------------------------- trust model ----------------------------- *)

let test_stale_submit_after_detach_dropped () =
  (* A client batches, detaches, then forges a fresh Submitted slot into
     the old ring memory.  The registration died with the session, so
     the poller never rebinds the ring: the forged slot must rot in
     Submitted, never execute, never complete. *)
  let world = poller_world () in
  let smod = world.World.smod in
  let slots_before = ref (-1) and slots_after = ref (-2) in
  let stale = ref (-1) and completed = ref (-1) in
  World.spawn_seclibc_client world ~name:"stale-forger" (fun p conn ->
      let r = Stub.arm_ring ~nslots:8 conn in
      let m_id = (Stub.conn_info conn).Wire.m_id in
      all_ok (Stub.call_batch conn ~func:"test_incr" [ [| 1 |]; [| 2 |]; [| 3 |]; [| 4 |] ]);
      (match Smod.poller_status smod with
      | Some ps -> slots_before := ps.Smod.ps_slots_stamped
      | None -> Alcotest.fail "poller not running");
      Stub.close conn;
      ignore
        (Ring.try_submit r ~m_id ~func_id:0 ~client_sp:p.Proc.sp ~client_fp:p.Proc.fp
           ~args:[| 99 |]);
      (* Give the poller every chance to (wrongly) pick the slot up. *)
      for _ = 1 to 64 do
        Sched.yield ()
      done;
      (match Smod.poller_status smod with
      | Some ps -> slots_after := ps.Smod.ps_slots_stamped
      | None -> ());
      stale := Ring.stale_submitted r;
      completed := Ring.completed r);
  World.run world;
  Alcotest.(check int) "poller stamped nothing after detach" !slots_before !slots_after;
  Alcotest.(check int) "forged slot rots in Submitted" 1 !stale;
  Alcotest.(check int) "no completion beyond the real batch" 4 !completed

let test_geometry_forgery_einval_under_poller () =
  (* Same forgery as test_ring's batch-trap case, but against the
     doorbell: grow the header's nslots word after setup, then ring the
     doorbell.  The bind validates against the geometry pinned at setup
     and must refuse — EINVAL, not a widened poller view.  The ring is
     hand-armed because Stub.arm_ring would doorbell (and bind) while
     the header is still honest. *)
  let world = poller_world () in
  let err = ref None in
  World.spawn_seclibc_client world ~name:"geom-forger" (fun p conn ->
      ignore conn;
      let nslots = 8 in
      let base = (Aspace.brk p.Proc.aspace + 63) land lnot 63 in
      ignore
        (M.syscall world.World.machine p Sysno.obreak [| base + Ring.size_bytes ~nslots |]);
      ignore (Ring.init p.Proc.aspace ~base ~nslots);
      ignore (M.syscall world.World.machine p Sysno.smod_ring_setup [| base; nslots |]);
      Aspace.write_word p.Proc.aspace ~addr:(base + 4) 65536;
      match M.syscall world.World.machine p Sysno.smod_poll_doorbell [||] with
      | _ -> err := Some `No_error
      | exception Errno.Error (e, _) -> err := Some (`Errno e));
  World.run world;
  Alcotest.(check bool) "doorbell refused forged geometry with EINVAL" true
    (!err = Some (`Errno Errno.EINVAL))

(* ---------------------- park/wake accounting ----------------------- *)

let test_park_wake_counted () =
  let world = poller_world () in
  let smod = world.World.smod in
  (* Phase A: no sessions.  The poller burns exactly its spin budget in
     empty sweeps, then parks once. *)
  World.run world;
  let ps = Option.get (Smod.poller_status smod) in
  Alcotest.(check bool) "parked" true ps.Smod.ps_parked;
  Alcotest.(check int) "spin-budget empty sweeps" (Smod.spin_budget smod) ps.Smod.ps_sweeps;
  Alcotest.(check int) "one park" 1 ps.Smod.ps_parks;
  Alcotest.(check int) "no wakes yet" 0 ps.Smod.ps_wakes;
  (* Phase B: one client, one 8-call batch.  The arm-time doorbell
     unparks the poller exactly once; it stamps the batch in one sweep,
     burns its budget again, and re-parks. *)
  let sid = ref (-1) in
  World.spawn_seclibc_client world ~name:"waker" (fun _p conn ->
      sid := Stub.session_id conn;
      all_ok (Stub.call_batch conn ~func:"test_incr" (List.init 8 (fun i -> [| i |]))));
  World.run world;
  let ps = Option.get (Smod.poller_status smod) in
  Alcotest.(check int) "exactly one doorbell" 1 ps.Smod.ps_doorbells;
  Alcotest.(check int) "exactly one wake" 1 ps.Smod.ps_wakes;
  Alcotest.(check int) "re-parked exactly once more" 2 ps.Smod.ps_parks;
  Alcotest.(check bool) "parked again" true ps.Smod.ps_parked;
  Alcotest.(check int) "whole batch stamped by the poller" 8 ps.Smod.ps_slots_stamped;
  Alcotest.(check int) "one stamping sweep plus two spin budgets" 9 ps.Smod.ps_sweeps;
  Alcotest.(check int) "all other sweeps empty" 8 ps.Smod.ps_empty_sweeps;
  Alcotest.(check (list (pair int int)))
    "per-session slot accounting" [ (!sid, 8) ] ps.Smod.ps_session_slots

(* --------------------- zero-trap integration twin ------------------ *)

let test_zero_trap_batch () =
  (* The "one batch, counted" twin of the E22 headline: after warm-up,
     a full 16-call batch runs end to end — submit, admission stamps,
     fiber execution, completion, reap — with zero traps machine-wide,
     and every call still lands in the session's metering. *)
  let world = poller_world () in
  let smod = world.World.smod in
  (* Keep the poller from parking across the measured window. *)
  Smod.set_spin_budget smod 64;
  let traps = ref (-1) and calls_delta = ref (-1) in
  World.spawn_seclibc_client world ~name:"zero-trap" (fun p conn ->
      all_ok (Stub.call_batch conn ~func:"test_incr" [ [| 1 |]; [| 2 |] ]);
      let session =
        match Smod.session_of_client smod ~client_pid:p.Proc.pid with
        | Some s -> s
        | None -> Alcotest.fail "session vanished"
      in
      let calls0 = session.Smod.calls in
      let traps0 = M.syscall_count world.World.machine in
      all_ok (Stub.call_batch conn ~func:"test_incr" (List.init 16 (fun i -> [| i |])));
      traps := M.syscall_count world.World.machine - traps0;
      calls_delta := session.Smod.calls - calls0);
  World.run world;
  Alcotest.(check int) "zero traps machine-wide across the batch" 0 !traps;
  Alcotest.(check int) "all 16 calls executed and metered" 16 !calls_delta

(* ---------------------- effects multiplexing ----------------------- *)

let test_mux_many_sessions_one_domain () =
  (* 64 concurrent ring-only sessions served by the single mux daemon:
     every client completes, the fiber high-water mark shows they were
     live simultaneously, and every fiber retires on detach. *)
  let world = poller_world () in
  let smod = world.World.smod in
  Smod.set_spin_budget smod 256;
  let n = 64 in
  let finished = ref 0 in
  for i = 1 to n do
    World.spawn_seclibc_client world
      ~name:(Printf.sprintf "mux-%d" i)
      (fun _p conn ->
        all_ok (Stub.call_batch conn ~func:"test_incr" [ [| i |]; [| i + 1 |] ]);
        incr finished)
  done;
  World.run world;
  Alcotest.(check int) "all clients completed" n !finished;
  let ms = Option.get (Smod.mux_status smod) in
  Alcotest.(check int) "sessions attached" n ms.Smod.mxs_attached;
  Alcotest.(check int) "peak fibers live on one domain" n ms.Smod.mxs_peak;
  Alcotest.(check int) "all fibers retired" 0 ms.Smod.mxs_live

let test_mux_call_syscall_rejected () =
  (* Mux sessions are ring-only: the legacy per-call trap has no handle
     process to bounce to and must fail crisply, not hang. *)
  let world = poller_world () in
  let err = ref None in
  World.spawn_seclibc_client world ~name:"legacy-caller" (fun _p conn ->
      match Stub.call conn ~func:"test_incr" [| 1 |] with
      | _ -> err := Some `No_error
      | exception Errno.Error (e, _) -> err := Some (`Errno e));
  World.run world;
  Alcotest.(check bool) "smod_call on a mux session is EPERM" true
    (!err = Some (`Errno Errno.EPERM))

(* ------------------------- mux daemon death ------------------------ *)

let mux_world () =
  let world = World.create ~with_rpc:false () in
  Smod.set_session_mux world.World.smod true;
  world

let test_mux_death_batch_trap () =
  Install_paths.check_handle_death ~world:mux_world ~shared:true

let test_mux_death_poller () = Install_paths.check_handle_death ~world:poller_world ~shared:true

(* After the daemon dies, new sessions take a cold fork until the mux is
   enabled again, which spawns a fresh daemon. *)
let test_dead_mux_routes_cold_until_enabled () =
  let world = poller_world () in
  let smod = world.World.smod in
  let next_session () =
    let session = ref None in
    World.spawn_seclibc_client world ~name:"client" (fun p conn ->
        ignore (Install_paths.ring_call conn 1);
        session := Smod.session_of_client smod ~client_pid:p.Proc.pid);
    World.run world;
    Option.get !session
  in
  let kind s =
    match s.Smod.kind with
    | Smod.Forked _ -> "forked"
    | Smod.Pooled _ -> "pooled"
    | Smod.Mux _ -> "mux"
  in
  let first = next_session () in
  Alcotest.(check string) "first session" "mux" (kind first);
  M.kill world.World.machine ~pid:first.Smod.handle_pid ~signal:Smod_kern.Signal.sigkill;
  World.run world;
  Alcotest.(check bool) "routing off" false (Smod.session_mux_enabled smod);
  Alcotest.(check bool) "no mux status" true (Smod.mux_status smod = None);
  Alcotest.(check string) "after the death" "forked" (kind (next_session ()));
  Smod.set_session_mux smod true;
  Alcotest.(check string) "re-enabled" "mux" (kind (next_session ()));
  Alcotest.(check int) "a fresh daemon" 1 (Option.get (Smod.mux_status smod)).Smod.mxs_attached

let test_mux_release_conserves () =
  Install_paths.check_release_conserves (poller_world ()) ~call:Install_paths.ring_call

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "poller"
    [
      ("spin knob", [ tc "shared spin budget" test_spin_budget_knob ]);
      ( "trust model",
        [
          tc "stale submit after detach dropped" test_stale_submit_after_detach_dropped;
          tc "geometry forgery stays EINVAL" test_geometry_forgery_einval_under_poller;
        ] );
      ("park/wake", [ tc "transitions counted exactly" test_park_wake_counted ]);
      ( "zero-trap path",
        [
          tc "one batch, zero client traps" test_zero_trap_batch;
          tc "1 domain, 64 fibers" test_mux_many_sessions_one_domain;
          tc "legacy call rejected on mux session" test_mux_call_syscall_rejected;
        ] );
      ( "mux lifecycle",
        [
          tc "daemon death fails closed (batch trap)" test_mux_death_batch_trap;
          tc "daemon death fails closed (poller)" test_mux_death_poller;
          tc "dead mux routes cold until enabled" test_dead_mux_routes_cold_until_enabled;
          tc "no frame leaks across mux sessions" test_mux_release_conserves;
        ] );
    ]
