(* lib/pool: the smodd session-multiplexing service layer — handle reuse,
   secret scrubbing between tenants, admission-queue overflow, the
   policy-decision cache smodd installs in admission, and teardown on
   module removal. *)

module M = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Sched = Smod_kern.Sched
module Errno = Smod_kern.Errno
module Sysno = Smod_kern.Sysno
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Keystore = Smod_keynote.Keystore
module Parse = Smod_keynote.Parse
module Smof = Smod_modfmt.Smof
module World = Smod_bench_kit.World
module Fuse = Smod_keynote.Fuse
module Smodd = Smod_pool.Smodd
open Secmodule

let counter name =
  match Smod_metrics.counter_value name with
  | Some v -> v
  | None -> Alcotest.failf "counter %s not registered" name

(* One handle total: every session after the first must reuse it. *)
let one_handle overflow =
  { Smodd.default_config with max_handles_per_module = 1; max_total_handles = 1; overflow }

let handle_pid_of smod p =
  match Smod.session_of_client smod ~client_pid:p.Proc.pid with
  | Some s -> s.Smod.handle_pid
  | None -> Alcotest.fail "no session for client"

(* ----------------------------- reuse -------------------------------- *)

let test_attach_detach_reuse () =
  let world = World.create ~pool:(one_handle Smodd.Wait) ~with_rpc:false () in
  let hit0 = counter "pool.hit"
  and miss0 = counter "pool.miss"
  and scrubs0 = counter "secmodule.handle_scrubs" in
  let pids = ref [] in
  for round = 1 to 3 do
    ignore
      (M.spawn world.World.machine
         ~name:(Printf.sprintf "tenant-%d" round)
         (fun p ->
           let conn =
             Stub.connect world.World.smod p ~module_name:Smod_libc.Seclibc.module_name
               ~version:Smod_libc.Seclibc.version
               ~credential:(Credential.make ~principal:"client" ())
           in
           pids := handle_pid_of world.World.smod p :: !pids;
           Alcotest.(check int) "call works" (round + 1)
             (Smod_libc.Seclibc.Client.test_incr conn round);
           Stub.close conn));
    World.run world
  done;
  (match !pids with
  | [ a; b; c ] ->
      Alcotest.(check int) "round 2 reuses the handle" a b;
      Alcotest.(check int) "round 3 reuses the handle" b c
  | _ -> Alcotest.fail "expected three sessions");
  Alcotest.(check int) "exactly one pool.miss (the first fork)" 1 (counter "pool.miss" - miss0);
  Alcotest.(check int) "exactly two pool.hits (the reuses)" 2 (counter "pool.hit" - hit0);
  Alcotest.(check int) "one scrub per detach" 3 (counter "secmodule.handle_scrubs" - scrubs0);
  let st = Smodd.status (Option.get world.World.pool) in
  Alcotest.(check int) "one live handle" 1 st.Smodd.st_total_handles;
  match st.Smodd.st_modules with
  | [ ms ] ->
      Alcotest.(check int) "3 tenants served" 3 ms.Smodd.ms_tenants;
      Alcotest.(check int) "parked between tenants" 1 ms.Smodd.ms_parked;
      Alcotest.(check int) "single fork" 1 ms.Smodd.ms_spawned
  | _ -> Alcotest.fail "expected one module row"

(* ------------------------ secret scrubbing --------------------------- *)

(* A module whose natives read and write a fixed slot in the handle's
   secret segment plus a mutable global in its own data segment: tenant A
   plants values in both, tenant B on the same pooled handle must read
   the secret slot back as zero and the global back at its pristine
   image value — cold-fork semantics, not last-tenant leftovers. *)
let secret_slot = Layout.secret_base + 512
let pristine_global = 0x5EED1234

let secret_module smod =
  let b = Smof.Builder.create ~name:"secretmod" ~version:1 in
  ignore (Smof.Builder.add_native_function b ~name:"poke" ~native:"poke" ~size_hint:32 ());
  ignore (Smof.Builder.add_native_function b ~name:"peek" ~native:"peek" ~size_hint:32 ());
  ignore (Smof.Builder.add_native_function b ~name:"gpoke" ~native:"gpoke" ~size_hint:32 ());
  ignore (Smof.Builder.add_native_function b ~name:"gpeek" ~native:"gpeek" ~size_hint:32 ());
  let global_off =
    let init = Bytes.create 4 in
    Bytes.set_int32_le init 0 (Int32.of_int pristine_global);
    Smof.Builder.add_data b init
  in
  let entry = Toolchain.package smod ~image:(Smof.Builder.finish b) () in
  let global_addr h =
    match Smod.session_of_handle smod ~handle_pid:h.Proc.pid with
    | Some _ -> Layout.module_data_base + global_off
    | None -> Alcotest.fail "native ran outside a session"
  in
  Smod.bind_native smod ~m_id:entry.Registry.m_id ~name:"poke" (fun _m h ~args_base ->
      Aspace.write_word h.Proc.aspace ~addr:secret_slot
        (Aspace.read_word h.Proc.aspace ~addr:args_base);
      0);
  Smod.bind_native smod ~m_id:entry.Registry.m_id ~name:"peek" (fun _m h ~args_base:_ ->
      Aspace.read_word h.Proc.aspace ~addr:secret_slot);
  Smod.bind_native smod ~m_id:entry.Registry.m_id ~name:"gpoke" (fun _m h ~args_base ->
      Aspace.write_word h.Proc.aspace ~addr:(global_addr h)
        (Aspace.read_word h.Proc.aspace ~addr:args_base);
      0);
  Smod.bind_native smod ~m_id:entry.Registry.m_id ~name:"gpeek" (fun _m h ~args_base:_ ->
      Aspace.read_word h.Proc.aspace ~addr:(global_addr h));
  entry

let test_secret_scrubbed_between_tenants () =
  let machine = M.create ~jitter:0.0 () in
  let smod = Smod.install machine () in
  let pool = Smodd.install smod ~config:(one_handle Smodd.Wait) () in
  ignore (secret_module smod);
  let seen = ref (-1) and seen_global = ref (-1) in
  ignore
    (M.spawn machine ~name:"tenant-a" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:"secretmod" ~version:1
             ~credential:(Credential.make ~principal:"alice" ())
         in
         ignore (Stub.call conn ~func:"poke" [| 0xBEEF |]);
         Alcotest.(check int) "tenant A sees its own secret" 0xBEEF
           (Stub.call conn ~func:"peek" [||]);
         Alcotest.(check int) "tenant A sees the pristine global" pristine_global
           (Stub.call conn ~func:"gpeek" [||]);
         ignore (Stub.call conn ~func:"gpoke" [| 0xFACE |]);
         Alcotest.(check int) "tenant A sees its own global write" 0xFACE
           (Stub.call conn ~func:"gpeek" [||]);
         Stub.close conn));
  M.run machine;
  ignore
    (M.spawn machine ~name:"tenant-b" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:"secretmod" ~version:1
             ~credential:(Credential.make ~principal:"bob" ())
         in
         seen := Stub.call conn ~func:"peek" [||];
         seen_global := Stub.call conn ~func:"gpeek" [||];
         Stub.close conn));
  M.run machine;
  Alcotest.(check int) "tenant B reads a scrubbed slot" 0 !seen;
  Alcotest.(check int) "tenant B reads the re-installed global, not tenant A's"
    pristine_global !seen_global;
  let st = Smodd.status pool in
  Alcotest.(check int) "same single handle served both" 1 st.Smodd.st_total_handles;
  Alcotest.(check bool) "scrub bytes counted" true (counter "secmodule.scrub_bytes" > 0)

(* ------------------------- admission queue --------------------------- *)

(* A holds the only handle and blocks inside a call so B's start_session
   runs while the pool is saturated. *)
let overflow_world overflow ~on_b =
  let world = World.create ~pool:(one_handle overflow) ~with_rpc:false () in
  ignore
    (M.spawn world.World.machine ~name:"holder" (fun p ->
         let conn =
           Stub.connect world.World.smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version
             ~credential:(Credential.make ~principal:"holder" ())
         in
         let holder_handle = handle_pid_of world.World.smod p in
         ignore
           (M.spawn world.World.machine ~name:"second" (fun q ->
                on_b world q ~holder_handle));
         (* The reply block inside this call is where "second" runs. *)
         ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
         Stub.close conn));
  World.run world

let test_admission_reject () =
  let rejects0 = counter "pool.rejects" in
  let outcome = ref `Nothing in
  overflow_world Smodd.Reject ~on_b:(fun world q ~holder_handle:_ ->
      match
        Stub.connect world.World.smod q ~module_name:Smod_libc.Seclibc.module_name
          ~version:Smod_libc.Seclibc.version
          ~credential:(Credential.make ~principal:"second" ())
      with
      | _ -> outcome := `Connected
      | exception Errno.Error (Errno.EAGAIN, msg) -> outcome := `Rejected msg);
  (match !outcome with
  | `Rejected msg ->
      Alcotest.(check bool) "smodd names itself in the error" true
        (String.length msg >= 5 && String.sub msg 0 5 = "smodd")
  | `Connected -> Alcotest.fail "saturated pool accepted a session"
  | `Nothing -> Alcotest.fail "second client never ran");
  Alcotest.(check int) "one pool.reject" 1 (counter "pool.rejects" - rejects0)

let test_admission_wait () =
  let waits0 = counter "pool.waits" in
  let second_handle = ref (-1) and holder = ref (-1) in
  overflow_world Smodd.Wait ~on_b:(fun world q ~holder_handle ->
      holder := holder_handle;
      let conn =
        Stub.connect world.World.smod q ~module_name:Smod_libc.Seclibc.module_name
          ~version:Smod_libc.Seclibc.version
          ~credential:(Credential.make ~principal:"second" ())
      in
      second_handle := handle_pid_of world.World.smod q;
      Alcotest.(check int) "queued client's calls work" 8
        (Smod_libc.Seclibc.Client.test_incr conn 7);
      Stub.close conn);
  Alcotest.(check int) "waiter got the holder's recycled handle" !holder !second_handle;
  Alcotest.(check int) "one pool.wait" 1 (counter "pool.waits" - waits0)

(* A waiter queued because the global cap binds must be served when a
   handle of a *different* module parks: the parking handle is retired
   and the freed slot spawned for the starved module — parking it idle
   would strand the waiter forever. *)
let ping_module smod ~name =
  let b = Smof.Builder.create ~name ~version:1 in
  ignore (Smof.Builder.add_native_function b ~name:"ping" ~native:"ping" ~size_hint:32 ());
  let entry = Toolchain.package smod ~image:(Smof.Builder.finish b) () in
  Smod.bind_native smod ~m_id:entry.Registry.m_id ~name:"ping" (fun _m _h ~args_base:_ -> 7);
  entry

let test_parked_handle_yields_to_starved_module () =
  let machine = M.create ~jitter:0.0 () in
  let smod = Smod.install machine () in
  let pool = Smodd.install smod ~config:(one_handle Smodd.Wait) () in
  ignore (ping_module smod ~name:"alpha");
  ignore (ping_module smod ~name:"beta");
  let reclaims0 = counter "pool.reclaims" in
  let beta_result = ref (-1) in
  ignore
    (M.spawn machine ~name:"alpha-client" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:"alpha" ~version:1
             ~credential:(Credential.make ~principal:"alice" ())
         in
         ignore
           (M.spawn machine ~name:"beta-client" (fun q ->
                let conn =
                  Stub.connect smod q ~module_name:"beta" ~version:1
                    ~credential:(Credential.make ~principal:"bob" ())
                in
                beta_result := Stub.call conn ~func:"ping" [||];
                Stub.close conn));
         (* beta-client queues inside this call's reply block (alpha's
            handle holds the only global slot); closing parks the handle,
            which must yield the slot rather than idle. *)
         ignore (Stub.call conn ~func:"ping" [||]);
         Stub.close conn));
  M.run machine;
  Alcotest.(check int) "starved beta client was served" 7 !beta_result;
  Alcotest.(check int) "alpha's parking handle was reclaimed" 1
    (counter "pool.reclaims" - reclaims0);
  let st = Smodd.status pool in
  Alcotest.(check int) "global cap still respected" 1 st.Smodd.st_total_handles;
  Alcotest.(check int) "nobody left queued" 0 st.Smodd.st_total_waiters

(* A client SIGKILLed while blocked in the admission queue must drop out
   of the waiter accounting, and any handle granted but never attached
   must return to the pool — no leaked capacity either way. *)
let test_killed_waiter_releases_capacity () =
  let world = World.create ~pool:(one_handle Smodd.Wait) ~with_rpc:false () in
  let machine = world.World.machine and smod = world.World.smod in
  let cancelled0 = counter "pool.cancelled" in
  ignore
    (M.spawn machine ~name:"holder" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version
             ~credential:(Credential.make ~principal:"holder" ())
         in
         let victim =
           M.spawn machine ~name:"victim" (fun q ->
               ignore
                 (Stub.connect smod q ~module_name:Smod_libc.Seclibc.module_name
                    ~version:Smod_libc.Seclibc.version
                    ~credential:(Credential.make ~principal:"victim" ()));
               Alcotest.fail "killed waiter must never attach")
         in
         (* The victim queues inside this call's reply block. *)
         ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
         M.kill machine ~pid:victim.Proc.pid ~signal:Smod_kern.Signal.sigkill;
         Stub.close conn));
  World.run world;
  Alcotest.(check int) "victim uncounted" 1 (counter "pool.cancelled" - cancelled0);
  let st = Smodd.status (Option.get world.World.pool) in
  Alcotest.(check int) "no waiter left on the books" 0 st.Smodd.st_total_waiters;
  Alcotest.(check int) "handle survived" 1 st.Smodd.st_total_handles;
  (* The slot the victim would have consumed is still usable. *)
  let hit0 = counter "pool.hit" in
  ignore
    (M.spawn machine ~name:"after" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version
             ~credential:(Credential.make ~principal:"after" ())
         in
         Alcotest.(check int) "pool still serves" 3
           (Smod_libc.Seclibc.Client.test_incr conn 2);
         Stub.close conn));
  World.run world;
  Alcotest.(check int) "later client reuses the parked handle" 1 (counter "pool.hit" - hit0)

(* A pooled tenant killed mid-batch — ring slots Submitted but the batch
   trap never issued, so the kernel never stamped them and the handle
   never claimed them — must not leak those slots into the next tenancy:
   the recycle path counts and drops them, and the next tenant's ring
   starts zeroed. *)
let test_killed_mid_batch_scrubs_ring () =
  let world = World.create ~pool:(one_handle Smodd.Wait) ~with_rpc:false () in
  let machine = world.World.machine and smod = world.World.smod in
  let stale0 = counter "ring.stale_drops" in
  let victim_handle = ref (-1) in
  let victim =
    M.spawn machine ~name:"ring-victim" (fun p ->
        let conn =
          Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
            ~version:Smod_libc.Seclibc.version
            ~credential:(Credential.make ~principal:"victim" ())
        in
        victim_handle := handle_pid_of smod p;
        let r = Stub.arm_ring conn in
        (* One clean batch proves the fast path is live for this tenant. *)
        ignore (Stub.call_batch conn ~func:"test_incr" (List.init 4 (fun i -> [| i |])));
        (* Now die mid-batch: fill slots by hand, never trap. *)
        let info = Stub.conn_info conn in
        let fid = Option.get (Stub.func_id conn "test_incr") in
        for i = 1 to 3 do
          ignore
            (Smod_ring.Ring.try_submit r ~m_id:info.Wire.m_id ~func_id:fid
               ~client_sp:p.Proc.sp ~client_fp:0 ~args:[| i |])
        done;
        Alcotest.(check int) "3 slots left in flight" 3 (Smod_ring.Ring.stale_submitted r);
        (* Park so the kill lands while the slots are still Submitted. *)
        p.Proc.daemon <- true;
        Effect.perform (Sched.Block (Sched.Custom "mid-batch")))
  in
  M.run machine;
  M.kill machine ~pid:victim.Proc.pid ~signal:Smod_kern.Signal.sigkill;
  M.run machine;
  Alcotest.(check int) "3 stale slots counted at recycle" 3
    (counter "ring.stale_drops" - stale0);
  let st = Smodd.status (Option.get world.World.pool) in
  Alcotest.(check int) "handle survived the kill" 1 st.Smodd.st_total_handles;
  Alcotest.(check int) "status surfaces the drops" 3
    (st.Smodd.st_ring_stale_drops - stale0);
  (* The recycled handle serves the next tenant, whose ring starts
     zeroed and whose batch sees only its own results. *)
  ignore
    (M.spawn machine ~name:"ring-next" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version
             ~credential:(Credential.make ~principal:"next" ())
         in
         Alcotest.(check int) "recycled the victim's handle" !victim_handle
           (handle_pid_of smod p);
         let r = Stub.arm_ring conn in
         Alcotest.(check int) "fresh ring: head 0" 0 (Smod_ring.Ring.head r);
         Alcotest.(check int) "fresh ring: occupancy 0" 0 (Smod_ring.Ring.occupancy r);
         let results =
           Stub.call_batch conn ~func:"test_incr" (List.init 8 (fun i -> [| i * 2 |]))
         in
         List.iteri
           (fun i res ->
             match res with
             | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) ((i * 2) + 1) v
             | Error (_, m) -> Alcotest.failf "slot %d: %s" i m)
           results;
         Alcotest.(check int) "nothing stale after the batch" 0
           (Smod_ring.Ring.stale_submitted r);
         Stub.close conn));
  M.run machine

(* uninstall must wake queued clients (ENOENT, as on module removal),
   deregister its module-remove hook, and leave the subsystem clean
   enough that a fresh smodd can be installed. *)
let test_uninstall_wakes_waiters () =
  let world = World.create ~pool:(one_handle Smodd.Wait) ~with_rpc:false () in
  let machine = world.World.machine and smod = world.World.smod in
  let pool = Option.get world.World.pool in
  let outcome = ref `Nothing in
  ignore
    (M.spawn machine ~name:"holder" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version
             ~credential:(Credential.make ~principal:"holder" ())
         in
         ignore
           (M.spawn machine ~name:"queued" (fun q ->
                match
                  Stub.connect smod q ~module_name:Smod_libc.Seclibc.module_name
                    ~version:Smod_libc.Seclibc.version
                    ~credential:(Credential.make ~principal:"queued" ())
                with
                | _ -> outcome := `Connected
                | exception Errno.Error (Errno.ENOENT, _) -> outcome := `Enoent));
         ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
         (* "queued" is blocked in the admission queue; tear smodd down
            from under both of us. *)
         Smodd.uninstall pool));
  World.run world;
  Alcotest.(check bool) "queued client woken with ENOENT" true (!outcome = `Enoent);
  let st = Smodd.status pool in
  Alcotest.(check int) "no handles left" 0 st.Smodd.st_total_handles;
  Alcotest.(check int) "no waiters left" 0 st.Smodd.st_total_waiters;
  (* A fresh smodd installs cleanly and module removal touches only it —
     the old pool's remove hook is gone. *)
  let pool2 = Smodd.install smod ~config:(one_handle Smodd.Wait) () in
  ignore
    (M.spawn machine ~name:"fresh" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version
             ~credential:(Credential.make ~principal:"fresh" ())
         in
         ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
         Stub.close conn));
  M.run machine;
  Alcotest.(check int) "reinstalled pool serves" 1
    (Smodd.status pool2).Smodd.st_total_handles;
  ignore
    (M.spawn machine ~name:"admin" (fun p ->
         let bytes = Credential.to_bytes (Credential.make ~principal:"root" ()) in
         let addr = Layout.data_base + 512 in
         Aspace.write_bytes p.Proc.aspace ~addr bytes;
         ignore
           (M.syscall machine p Sysno.smod_remove
              [| world.World.libc_entry.Registry.m_id; addr; Bytes.length bytes |])));
  M.run machine;
  Alcotest.(check int) "removal drains only the live pool" 0
    (Smodd.status pool2).Smodd.st_total_handles;
  Smodd.uninstall pool2

(* smodd's cache lives and dies with the install: key changes after
   uninstall flush nothing. *)
let test_uninstall_leaves_keystore () =
  let world = World.create ~with_rpc:false () in
  let smod = world.World.smod in
  Smodd.uninstall (Smodd.install smod ());
  let flushes0 = counter "policy_cache.flushes" in
  for i = 1 to 3 do
    Keystore.add_principal (Smod.keystore smod) ~name:(Printf.sprintf "key-%d" i) ~secret:"s"
  done;
  Alcotest.(check int) "no flush after uninstall" 0 (counter "policy_cache.flushes" - flushes0)

(* ---------------------- one pooled dispatch, counted ----------------- *)

let test_one_pooled_dispatch_deltas () =
  let watched =
    [
      "secmodule.calls";
      "secmodule.policy_checks";
      "policy_cache.hits";
      "policy_cache.misses";
      "policy_cache.inserts";
      "kern.syscalls";
      "kern.msgq_sends";
      "kern.msgq_recvs";
    ]
  in
  let deltas = ref [] in
  let world = World.create ~pool:Smodd.default_config ~with_rpc:false () in
  World.spawn_seclibc_client world ~name:"cache-client" (fun _p conn ->
      (* Call 1 probes (miss) and populates the cache; call 2 is the
         steady state being pinned here. *)
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
  Alcotest.(check int) "1 dispatched call" 1 (delta "secmodule.calls");
  Alcotest.(check int) "1 cache hit" 1 (delta "policy_cache.hits");
  Alcotest.(check int) "0 cache misses" 0 (delta "policy_cache.misses");
  Alcotest.(check int) "0 inserts" 0 (delta "policy_cache.inserts");
  Alcotest.(check int) "policy evaluation replaced by the probe" 0
    (delta "secmodule.policy_checks");
  Alcotest.(check int) "1 kernel trap" 1 (delta "kern.syscalls");
  Alcotest.(check int) "2 msgq sends" 2 (delta "kern.msgq_sends");
  Alcotest.(check int) "2 msgq recvs" 2 (delta "kern.msgq_recvs")

let test_quota_policy_never_cached () =
  let world =
    World.create ~policy:(Policy.Call_quota 1_000) ~pool:Smodd.default_config ~with_rpc:false ()
  in
  let deltas = ref (0, 0) in
  World.spawn_seclibc_client world ~name:"quota-client" (fun _p conn ->
      (* Baseline after connect: the establishment-phase policy check is
         not the per-call evaluation being pinned here. *)
      let inserts0 = counter "policy_cache.inserts" in
      let checks0 = counter "secmodule.policy_checks" in
      ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
      ignore (Smod_libc.Seclibc.Client.test_incr conn 2);
      deltas :=
        (counter "policy_cache.inserts" - inserts0, counter "secmodule.policy_checks" - checks0));
  World.run world;
  let inserts, checks = !deltas in
  Alcotest.(check int) "stateful policy bypasses the cache" 0 inserts;
  Alcotest.(check int) "every call fully evaluated" 2 checks

(* --------------------------- cache unit ------------------------------ *)

let user_msgq = { Fuse.o_module = "user"; o_ring = 3; o_transport = "msgq" }
let denial reason = { Policy.reason; policy = Policy.Call_quota 1 }

(* Entries never expire (a cacheable policy reads no clock), are evicted
   FIFO at capacity and are all dropped by a flush. *)
let test_cache_ttl_and_eviction () =
  let clock = Clock.create ~jitter:0.0 () in
  let cache = Policy_cache.create ~clock ~capacity:2 in
  let ev0 = counter "policy_cache.evictions" in
  let probe d =
    Policy_cache.lookup cache ~cred_digest:d ~origin:user_msgq ~func_name:"f" ~m_id:1
      ~policy_rev:1 ~keystore_gen:0
  in
  let put d =
    Policy_cache.store cache ~cred_digest:d ~origin:user_msgq ~func_name:"f" ~m_id:1
      ~policy_rev:1 ~keystore_gen:0 Policy_cache.Allow
  in
  put "a";
  Alcotest.(check bool) "fresh entry hits" true (probe "a" = Some Policy_cache.Allow);
  Clock.charge_cycles clock (10_000_000.0 *. Cost.cycles_per_us);
  Alcotest.(check bool) "no TTL: a 10 s old entry hits" true
    (probe "a" = Some Policy_cache.Allow);
  (* FIFO eviction at capacity 2. *)
  put "b";
  put "c";
  Alcotest.(check int) "capacity bound holds" 2 (Policy_cache.size cache);
  Alcotest.(check bool) "oldest evicted" true (probe "a" = None);
  Alcotest.(check bool) "newest kept" true (probe "c" = Some Policy_cache.Allow);
  Alcotest.(check int) "eviction counted" 1 (counter "policy_cache.evictions" - ev0);
  (* A denial round-trips with its reason. *)
  Policy_cache.store cache ~cred_digest:"d" ~origin:user_msgq ~func_name:"g" ~m_id:2
    ~policy_rev:1 ~keystore_gen:0 (Policy_cache.Deny (denial "quota"));
  Alcotest.(check bool) "denial cached" true
    (Policy_cache.lookup cache ~cred_digest:"d" ~origin:user_msgq ~func_name:"g" ~m_id:2
       ~policy_rev:1 ~keystore_gen:0
    = Some (Policy_cache.Deny (denial "quota")));
  Alcotest.(check bool) "flush empties" true (Policy_cache.flush cache >= 0);
  Alcotest.(check int) "empty after flush" 0 (Policy_cache.size cache)

(* A key stored again while present is refreshed in place: it keeps its
   FIFO position, so it is still the first to go. *)
let test_cache_refresh_keeps_fifo_order () =
  let clock = Clock.create ~jitter:0.0 () in
  let cache = Policy_cache.create ~clock ~capacity:2 in
  let probe d m =
    Policy_cache.lookup cache ~cred_digest:d ~origin:user_msgq ~func_name:"f" ~m_id:m
      ~policy_rev:1 ~keystore_gen:0
  in
  let put d m =
    Policy_cache.store cache ~cred_digest:d ~origin:user_msgq ~func_name:"f" ~m_id:m
      ~policy_rev:1 ~keystore_gen:0 Policy_cache.Allow
  in
  put "a" 1;
  put "b" 2;
  put "a" 1;
  put "c" 3;
  Alcotest.(check int) "capacity bound holds" 2 (Policy_cache.size cache);
  Alcotest.(check bool) "refreshed a kept the oldest slot and went first" true
    (probe "a" 1 = None);
  Alcotest.(check bool) "b kept" true (probe "b" 2 = Some Policy_cache.Allow);
  Alcotest.(check bool) "c kept" true (probe "c" 3 = Some Policy_cache.Allow)

(* The origin is part of the key: one digest, function and module under
   two origins are two decisions, and neither answers for the other. *)
let test_cache_keys_origin () =
  let clock = Clock.create ~jitter:0.0 () in
  let cache = Policy_cache.create ~clock ~capacity:16 in
  let user_ring = { user_msgq with Fuse.o_transport = "ring" } in
  let put origin d =
    Policy_cache.store cache ~cred_digest:"d" ~origin ~func_name:"f" ~m_id:1 ~policy_rev:1
      ~keystore_gen:0 d
  in
  let probe origin =
    Policy_cache.lookup cache ~cred_digest:"d" ~origin ~func_name:"f" ~m_id:1 ~policy_rev:1
      ~keystore_gen:0
  in
  put user_msgq Policy_cache.Allow;
  Alcotest.(check bool) "another origin misses" true (probe user_ring = None);
  put user_ring (Policy_cache.Deny (denial "transport"));
  Alcotest.(check int) "two entries" 2 (Policy_cache.size cache);
  Alcotest.(check bool) "msgq keeps its allow" true (probe user_msgq = Some Policy_cache.Allow);
  Alcotest.(check bool) "ring keeps its deny" true
    (probe user_ring = Some (Policy_cache.Deny (denial "transport")))

(* A hit builds one key record of fields the caller already holds and
   formats nothing, so it allocates at most 16 words; smodd's cache
   answers about a million calls in a 3 s session-churn run. *)
let test_cache_hit_words () =
  let clock = Clock.create ~jitter:0.0 () in
  let cache = Policy_cache.create ~clock ~capacity:16 in
  let cred_digest = String.make 32 'd' in
  let probe () =
    Policy_cache.lookup cache ~cred_digest ~origin:user_msgq ~func_name:"test_incr" ~m_id:1
      ~policy_rev:1 ~keystore_gen:0
  in
  Policy_cache.store cache ~cred_digest ~origin:user_msgq ~func_name:"test_incr" ~m_id:1
    ~policy_rev:1 ~keystore_gen:0 Policy_cache.Allow;
  let hits = 1_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to hits do
    if probe () <> Some Policy_cache.Allow then Alcotest.fail "hit expected"
  done;
  let per_hit = (Gc.minor_words () -. w0) /. float hits in
  let label = Printf.sprintf "%.1f words per hit, at most 16" per_hit in
  Alcotest.(check bool) label true (per_hit <= 16.0)

let test_keystore_change_flushes () =
  let world = World.create ~pool:Smodd.default_config ~with_rpc:false () in
  let flushes0 = counter "policy_cache.flushes" in
  World.spawn_seclibc_client world ~name:"ks-client" (fun _p conn ->
      ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
      Keystore.add_principal (Smod.keystore world.World.smod) ~name:"newkey" ~secret:"s";
      (* Generation moved: the next call re-evaluates and re-populates. *)
      ignore (Smod_libc.Seclibc.Client.test_incr conn 2));
  World.run world;
  Alcotest.(check int) "keystore change flushed the cache" 1
    (counter "policy_cache.flushes" - flushes0);
  let st = Smodd.status (Option.get world.World.pool) in
  Alcotest.(check int) "repopulated under the new generation" 1 st.Smodd.st_cache_size

(* Revision and generation live in the entries, not the keys: 1,000
   policy revisions for one (credential, function, module) leave one
   decision, and only the current pair is served. *)
let test_cache_revisions_supersede_in_place () =
  let clock = Clock.create ~jitter:0.0 () in
  let cache = Policy_cache.create ~clock ~capacity:16 in
  for rev = 1 to 1_000 do
    Policy_cache.store cache ~cred_digest:"d" ~origin:user_msgq ~func_name:"f" ~m_id:1
      ~policy_rev:rev ~keystore_gen:0 Policy_cache.Allow
  done;
  Alcotest.(check int) "one decision" 1 (Policy_cache.size cache);
  let hit ~rev ~gen =
    match
      Policy_cache.lookup cache ~cred_digest:"d" ~origin:user_msgq ~func_name:"f" ~m_id:1
        ~policy_rev:rev ~keystore_gen:gen
    with
    | Some Policy_cache.Allow -> true
    | None -> false
    | Some (Policy_cache.Deny _) -> Alcotest.failf "rev %d gen %d: deny for a stored allow" rev gen
  in
  Alcotest.(check bool) "current revision hits" true (hit ~rev:1_000 ~gen:0);
  List.iter
    (fun (rev, gen) ->
      Alcotest.(check bool) (Printf.sprintf "rev %d gen %d misses" rev gen) false
        (hit ~rev ~gen))
    [ (1, 0); (999, 0); (1_001, 0); (1_000, 1); (1_000, -1); (999, 1) ];
  Alcotest.(check int) "the stale entry waits for its next store" 1 (Policy_cache.size cache)

(* A store under a new revision overwrites its key in place: one insert
   charge, no eviction of another key at capacity, and the key keeps its
   FIFO slot, so it is still the first to go. *)
let test_cache_supersede_charges_one_insert () =
  let clock = Clock.create ~jitter:0.0 () in
  let cache = Policy_cache.create ~clock ~capacity:2 in
  let put d rev =
    Policy_cache.store cache ~cred_digest:d ~origin:user_msgq ~func_name:"f" ~m_id:1
      ~policy_rev:rev ~keystore_gen:0 Policy_cache.Allow
  in
  let held d rev =
    Policy_cache.lookup cache ~cred_digest:d ~origin:user_msgq ~func_name:"f" ~m_id:1
      ~policy_rev:rev ~keystore_gen:0
    = Some Policy_cache.Allow
  in
  put "a" 1;
  put "b" 1;
  let ev0 = counter "policy_cache.evictions" and ins0 = counter "policy_cache.inserts" in
  let c0 = Clock.now_cycles clock in
  Policy_cache.store cache ~cred_digest:"a" ~origin:user_msgq ~func_name:"f" ~m_id:1
    ~policy_rev:2 ~keystore_gen:0 Policy_cache.Allow;
  Alcotest.(check (float 1e-9)) "one insert charge" (Cost.cycles Cost.Policy_cache_insert)
    (Clock.now_cycles clock -. c0);
  Alcotest.(check int) "one insert" 1 (counter "policy_cache.inserts" - ins0);
  Alcotest.(check int) "nothing evicted" 0 (counter "policy_cache.evictions" - ev0);
  Alcotest.(check bool) "b untouched" true (held "b" 1);
  Alcotest.(check bool) "a superseded" true (held "a" 2);
  put "c" 1;
  Alcotest.(check bool) "a kept the oldest slot and went first" false (held "a" 2);
  Alcotest.(check bool) "b kept" true (held "b" 1);
  Alcotest.(check bool) "c stored" true (held "c" 1)

(* The same through smodd: 40 policy updates, each followed by fresh
   pooled sessions of two principals calling two functions, leave the
   caches at the keys in use — 2 x 2 decisions in the pool, 2 programs
   on the registry entry. *)
let test_set_policy_churn_keeps_cache_flat () =
  let policy round =
    Policy.Keynote
      {
        policy =
          [
            Parse.assertion_of_string
              (Printf.sprintf
                 "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"alice\" || \"bob\"\n\
                  conditions: module == \"seclibc\" || round == \"%d\" -> \"allow\";\n"
                 round);
          ];
        levels = [| "deny"; "allow" |];
        min_level = "allow";
        attrs = [];
      }
  in
  let world = World.create ~pool:Smodd.default_config ~with_rpc:false ~policy:(policy 0) () in
  Smod.set_policy_compile world.World.smod true;
  let pool = Option.get world.World.pool in
  let calls = ref 0 in
  for round = 1 to 40 do
    Registry.set_policy world.World.libc_entry (policy round);
    List.iter
      (fun principal ->
        World.spawn_seclibc_client world ~name:principal ~principal (fun _p conn ->
            if Smod_libc.Seclibc.Client.test_incr conn round = round + 1 then incr calls;
            if Smod_libc.Seclibc.Client.abs conn (-round) = round then incr calls))
      [ "alice"; "bob" ];
    World.run world;
    let st = Smodd.status pool in
    Alcotest.(check int) (Printf.sprintf "round %d decisions" round) 4 st.Smodd.st_cache_size;
    Alcotest.(check int) (Printf.sprintf "round %d programs" round) 2
      (Hashtbl.length world.World.libc_entry.Registry.compiled_cache)
  done;
  Alcotest.(check int) "every call served" 160 !calls

(* ------------------- smodd changes no verdict ------------------------ *)

(* A seclibc world whose policy is one KeyNote assertion licensing
   "client" under [conds], with or without smodd. *)
let verdict_world ~smodd ~compile conds =
  let policy =
    Policy.Keynote
      {
        policy =
          [
            Parse.assertion_of_string
              (Printf.sprintf
                 "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: \"client\"\n\
                  conditions: %s\n"
                 conds);
          ];
        levels = [| "deny"; "allow" |];
        min_level = "allow";
        attrs = [];
      }
  in
  let pool = if smodd then Some Smodd.default_config else None in
  let world = World.create ?pool ~policy ~with_rpc:false () in
  Smod.set_policy_compile world.World.smod compile;
  world

let outcome = function Ok v -> Printf.sprintf "ok %d" v | Error e -> Errno.to_string e

(* The steps of a script: each runs in the client's one session and
   returns what it saw. *)
let msgq_step _world conn =
  match Stub.call conn ~func:"test_incr" [| 1 |] with
  | v -> outcome (Ok v)
  | exception Errno.Error (e, _) -> outcome (Error e)

let ring_step _world conn =
  Stub.call_batch conn ~func:"test_incr" [ [| 1 |]; [| 2 |] ]
  |> List.map (fun r -> outcome (Result.map_error fst r))
  |> String.concat "; "
  |> Printf.sprintf "[%s]"

let register_later_step world _conn =
  let b = Smof.Builder.create ~name:"later" ~version:1 in
  ignore (Smof.Builder.add_native_function b ~name:"f" ~native:"f" ~size_hint:16 ());
  ignore (Smod.register world.World.smod ~image:(Smof.Builder.finish b) ());
  "register later"

let compile_on_step world _conn =
  Smod.set_policy_compile world.World.smod true;
  "compile on"

let run_script world steps =
  let seen = ref [] in
  World.spawn_seclibc_client world ~name:"script" (fun _p conn ->
      List.iter (fun step -> seen := step world conn :: !seen) steps);
  World.run world;
  List.rev !seen

(* smodd's decision cache stands in for the per-call check, so a world
   with smodd must see every verdict a world without it sees: the
   transport scripts need the call's origin in the key, the module
   scripts a cache dropped with the programs (a registration may admit
   an origin_module literal; the engine switch changes the verdict of
   one that names no module). *)
let test_smodd_changes_no_verdict () =
  let by_transport =
    "phase == \"session\" -> \"allow\"; origin_transport == \"msgq\" -> \"allow\";"
  in
  let by_module = "origin_module == \"user\" || origin_module == \"later\" -> \"allow\";" in
  let scripts =
    List.concat_map
      (fun compile ->
        [
          ( Printf.sprintf "msgq then ring, compile %b" compile,
            compile,
            by_transport,
            [ msgq_step; ring_step ],
            [ "ok 2"; "[EACCES; EACCES]" ] );
          ( Printf.sprintf "ring then msgq, compile %b" compile,
            compile,
            by_transport,
            [ ring_step; msgq_step ],
            [ "[EACCES; EACCES]"; "ok 2" ] );
        ])
      [ false; true ]
    @ [
        ( "call, register later, call twice",
          true,
          by_module,
          [ msgq_step; register_later_step; msgq_step; msgq_step ],
          [ "EACCES"; "register later"; "ok 2"; "ok 2" ] );
        ( "call, compile on, call",
          false,
          by_module,
          [ msgq_step; compile_on_step; msgq_step ],
          [ "ok 2"; "compile on"; "EACCES" ] );
      ]
  in
  let cells smodd =
    List.map
      (fun (name, compile, conds, steps, _) ->
        (name, run_script (verdict_world ~smodd ~compile conds) steps))
      scripts
  in
  let reference = cells false in
  let table = Alcotest.(list (pair string (list string))) in
  Alcotest.check table "without smodd"
    (List.map (fun (name, _, _, _, expected) -> (name, expected)) scripts)
    reference;
  Alcotest.check table "with smodd" reference (cells true)

(* ----------------------- module removal ------------------------------ *)

let test_remove_module_retires_pool () =
  let world = World.create ~pool:(one_handle Smodd.Wait) ~with_rpc:false () in
  let machine = world.World.machine and smod = world.World.smod in
  let pool = Option.get world.World.pool in
  let parked_pid = ref (-1) in
  ignore
    (M.spawn machine ~name:"warm" (fun p ->
         let conn =
           Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version
             ~credential:(Credential.make ~principal:"client" ())
         in
         parked_pid := handle_pid_of smod p;
         ignore (Smod_libc.Seclibc.Client.test_incr conn 1);
         Stub.close conn));
  World.run world;
  Alcotest.(check int) "the warm call's decision cached" 1
    (Smodd.status pool).Smodd.st_cache_size;
  let m_id = world.World.libc_entry.Registry.m_id in
  ignore
    (M.spawn machine ~name:"admin" (fun p ->
         let bytes = Credential.to_bytes (Credential.make ~principal:"root" ()) in
         let addr = Layout.data_base + 512 in
         Aspace.write_bytes p.Proc.aspace ~addr bytes;
         ignore (M.syscall machine p Sysno.smod_remove [| m_id; addr; Bytes.length bytes |])));
  World.run world;
  Alcotest.(check int) "no pooled handles survive removal" 0
    (Smodd.status pool).Smodd.st_total_handles;
  Alcotest.(check int) "cached decisions evicted" 0 (Smodd.status pool).Smodd.st_cache_size;
  Alcotest.(check bool) "parked handle process is gone" true
    (match M.proc machine !parked_pid with None -> true | Some h -> Proc.is_zombie h);
  (* A client arriving after removal must see ENOENT, never a stale
     handle for the dead module. *)
  let outcome = ref `Nothing in
  ignore
    (M.spawn machine ~name:"late" (fun p ->
         match
           Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version
             ~credential:(Credential.make ~principal:"late" ())
         with
         | _ -> outcome := `Connected
         | exception Errno.Error (Errno.ENOENT, _) -> outcome := `Enoent));
  World.run world;
  Alcotest.(check bool) "late client gets ENOENT" true (!outcome = `Enoent)

(* ---------------------------- install once --------------------------- *)

let test_wrong_key_fails_closed_pooled () =
  Install_paths.check_fails_closed
    (World.create ~pool:Smodd.default_config ~with_rpc:false ())
    ~call:Install_paths.msgq_call

(* Room for five handles of one module, so five open sessions are five
   pooled spawns. *)
let test_pooled_spawns_share_linked_image () =
  let spawns0 = counter "pool.spawns" in
  let pool = { Smodd.default_config with max_handles_per_module = 5 } in
  Install_paths.check_installs_share_linked_image (World.create ~pool ~with_rpc:false ())
    ~call:Install_paths.msgq_call;
  Alcotest.(check int) "five pooled spawns" 5 (counter "pool.spawns" - spawns0)

(* ------------------------------ hygiene ------------------------------ *)

let test_pooled_churn_no_frame_leak () =
  Install_paths.check_release_conserves
    (World.create ~pool:(one_handle Smodd.Wait) ~with_rpc:false ())
    ~call:Smod_libc.Seclibc.Client.malloc

let pooled_world () = World.create ~pool:Smodd.default_config ~with_rpc:false ()

let test_handle_death_pooled () =
  Install_paths.check_handle_death ~world:pooled_world ~shared:false

let test_handle_death_before_handshake_pooled () =
  Install_paths.check_handshake_death (pooled_world ()) ~call:Install_paths.msgq_call

let test_handle_death_pooled_poller () =
  Install_paths.check_handle_death
    ~world:(fun () -> Install_paths.with_poller (pooled_world ()))
    ~shared:false

(* A client that opens and closes sessions in a loop keeps a flat
   exit-hook list: a hook left behind by a closed session pins that
   session for the client's lifetime.  1,000 cold sessions, then 1,000
   pooled ones once smodd is installed on the same subsystem; the
   session still open when the client exits is detached by its hook. *)
let test_session_churn_keeps_exit_hooks_flat () =
  let world = World.create ~with_rpc:false () in
  let smod = world.World.smod in
  let brokered () = counter "pool.hit" + counter "pool.miss" in
  let brokered0 = brokered () in
  let base = ref (-1) and peak = ref 0 in
  ignore
    (M.spawn world.World.machine ~name:"churn" (fun p ->
         base := List.length p.Proc.exit_hooks;
         let churn () =
           for i = 1 to 1000 do
             let conn =
               Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
                 ~version:Smod_libc.Seclibc.version
                 ~credential:(Credential.make ~principal:"churn" ())
             in
             if i mod 250 = 0 then
               Alcotest.(check int) "session serves" (i + 1)
                 (Smod_libc.Seclibc.Client.test_incr conn i);
             Stub.close conn;
             peak := max !peak (List.length p.Proc.exit_hooks)
           done
         in
         churn ();
         ignore (Smodd.install smod ());
         churn ();
         ignore
           (Stub.connect smod p ~module_name:Smod_libc.Seclibc.module_name
              ~version:Smod_libc.Seclibc.version
              ~credential:(Credential.make ~principal:"churn" ()))));
  World.run world;
  Alcotest.(check int) "no hook outlives its session" !base !peak;
  Alcotest.(check int) "exit detaches the open session" 0
    (List.length (Smod.active_sessions smod));
  Alcotest.(check int) "second half pooled" 1001 (brokered () - brokered0)

(* A pooled world keeps its live state once: clients cycling sessions
   (connect, 8 calls, close) through the pool retain nothing per session
   served.  The machine's trace is a window of the newest events, full
   well before 100 cycles, so a trace that kept every event would show
   here as about 7 words per event.  The world's words are counted by
   walking it, which unlike the GC's live count cannot depend on when
   the last major cycle ran. *)
let test_session_churn_live_words_flat () =
  let world = World.create ~pool:Smodd.default_config ~with_rpc:false () in
  let m = world.World.machine in
  let clients = 4 and calls = 8 in
  let owed = Array.make clients 0 and wqs = Array.init clients (fun _ -> Sched.waitq "churn") in
  let served = ref 0 and wrong = ref 0 in
  Array.iteri
    (fun i wq ->
      ignore
        (M.spawn m ~name:(Printf.sprintf "churn-%d" i) (fun p ->
             let rec serve () =
               if owed.(i) = 0 then Sched.wait_on wq p.Proc.pid
               else begin
                 owed.(i) <- owed.(i) - 1;
                 let conn =
                   Stub.connect world.World.smod p ~module_name:Smod_libc.Seclibc.module_name
                     ~version:Smod_libc.Seclibc.version ~credential:(World.credential world)
                 in
                 for k = 1 to calls do
                   if Smod_libc.Seclibc.Client.test_incr conn k <> k + 1 then incr wrong
                 done;
                 Stub.close conn;
                 incr served
               end;
               serve ()
             in
             serve ())))
    wqs;
  let cycle n =
    for c = 0 to n - 1 do
      owed.(c mod clients) <- owed.(c mod clients) + 1
    done;
    Array.iter (fun wq -> ignore (M.wake m wq)) wqs;
    while M.step m do
      ()
    done
  in
  let live_words () = Obj.reachable_words (Obj.repr world) in
  cycle 100;
  let after_100 = live_words () in
  cycle 900;
  let after_1000 = live_words () in
  Alcotest.(check (pair int int)) "cycles served, wrong results" (1000, 0) (!served, !wrong);
  let grown = after_1000 - after_100 in
  let label = Printf.sprintf "%d live words from 100 to 1,000 cycles, at most 128" grown in
  Alcotest.(check bool) label true (abs grown <= 128)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "pool"
    [
      ( "pooled sessions",
        [
          tc "attach/detach reuses the handle" test_attach_detach_reuse;
          tc "secret scrubbed between tenants" test_secret_scrubbed_between_tenants;
          tc "admission overflow: Reject" test_admission_reject;
          tc "admission overflow: Wait" test_admission_wait;
          tc "parked handle yields to a starved module" test_parked_handle_yields_to_starved_module;
          tc "killed waiter releases its capacity" test_killed_waiter_releases_capacity;
          tc "kill mid-batch scrubs the ring" test_killed_mid_batch_scrubs_ring;
          tc "wrong key fails closed" test_wrong_key_fails_closed_pooled;
          tc "pooled spawns share one linked image" test_pooled_spawns_share_linked_image;
        ] );
      ( "policy cache",
        [
          tc "one pooled dispatch, counted" test_one_pooled_dispatch_deltas;
          tc "stateful policies bypass the cache" test_quota_policy_never_cached;
          tc "TTL, FIFO eviction, invalidation" test_cache_ttl_and_eviction;
          tc "re-stored key keeps FIFO order" test_cache_refresh_keeps_fifo_order;
          tc "origins key separate decisions" test_cache_keys_origin;
          tc "a hit formats nothing" test_cache_hit_words;
          tc "keystore change flushes" test_keystore_change_flushes;
          tc "revisions supersede in place" test_cache_revisions_supersede_in_place;
          tc "superseding store charges one insert" test_cache_supersede_charges_one_insert;
          tc "set_policy churn keeps the cache flat" test_set_policy_churn_keeps_cache_flat;
          tc "installing smodd changes no verdict" test_smodd_changes_no_verdict;
        ] );
      ( "lifecycle",
        [
          tc "sys_smod_remove retires pooled handles" test_remove_module_retires_pool;
          tc "uninstall wakes queued waiters" test_uninstall_wakes_waiters;
          tc "uninstall leaves nothing on the keystore" test_uninstall_leaves_keystore;
          tc "no frame leaks across pooled churn" test_pooled_churn_no_frame_leak;
          tc "handle death fails closed (batch trap)" test_handle_death_pooled;
          tc "handle death fails closed (poller)" test_handle_death_pooled_poller;
          tc "handle death before the handshake" test_handle_death_before_handshake_pooled;
          tc "session churn keeps exit hooks flat" test_session_churn_keeps_exit_hooks_flat;
          tc "session churn keeps live words flat" test_session_churn_live_words_flat;
        ] );
    ]
