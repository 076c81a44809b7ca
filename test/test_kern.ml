(* Tests for Smod_kern: the coroutine scheduler, process lifecycle,
   SysV message queues, signals, ptrace restrictions and syscall
   dispatch. *)

module M = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Sched = Smod_kern.Sched
module Errno = Smod_kern.Errno
module Signal = Smod_kern.Signal
module Sysno = Smod_kern.Sysno
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Trace = Smod_sim.Trace

let mk () = M.create ~jitter:0.0 ()

(* ---------------------------- lifecycle ---------------------------- *)

let test_spawn_runs_body () =
  let m = mk () in
  let ran = ref false in
  ignore (M.spawn m ~name:"p" (fun _ -> ran := true));
  M.run m;
  Alcotest.(check bool) "body ran" true !ran

let test_spawn_order_fifo () =
  let m = mk () in
  let order = ref [] in
  ignore (M.spawn m ~name:"a" (fun _ -> order := "a" :: !order));
  ignore (M.spawn m ~name:"b" (fun _ -> order := "b" :: !order));
  ignore (M.spawn m ~name:"c" (fun _ -> order := "c" :: !order));
  M.run m;
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] (List.rev !order)

let test_exit_status () =
  let m = mk () in
  let p = M.spawn m ~name:"p" (fun p -> M.sys_exit m p 3) in
  M.run m;
  Alcotest.(check bool) "zombie exited 3" true
    (match p.Proc.state with Proc.Zombie (Sched.Exited 3) -> true | _ -> false)

let test_normal_return_is_exit0 () =
  let m = mk () in
  let p = M.spawn m ~name:"p" (fun _ -> ()) in
  M.run m;
  Alcotest.(check bool) "exit 0" true
    (match p.Proc.state with Proc.Zombie (Sched.Exited 0) -> true | _ -> false)

let test_yield_interleaves () =
  let m = mk () in
  let log = ref [] in
  let body tag _ =
    log := (tag ^ "1") :: !log;
    Sched.yield ();
    log := (tag ^ "2") :: !log
  in
  ignore (M.spawn m ~name:"a" (body "a"));
  ignore (M.spawn m ~name:"b" (body "b"));
  M.run m;
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_getpid () =
  let m = mk () in
  let seen = ref 0 in
  let p = M.spawn m ~name:"p" (fun p -> seen := M.sys_getpid m p) in
  M.run m;
  Alcotest.(check int) "pid" p.Proc.pid !seen

let test_fork_and_wait () =
  let m = mk () in
  let child_pid = ref 0 and reaped = ref (Sched.Exited (-1), -1) in
  ignore
    (M.spawn m ~name:"parent" (fun p ->
         let child = M.sys_fork m p ~name:"child" ~child_body:(fun c -> M.sys_exit m c 7) in
         child_pid := child.Proc.pid;
         reaped := M.sys_wait m p));
  M.run m;
  let status, pid = !reaped in
  Alcotest.(check int) "reaped pid" !child_pid pid;
  Alcotest.(check bool) "status 7" true (status = Sched.Exited 7);
  Alcotest.(check bool) "child reaped from table" true (M.proc m !child_pid = None)

let test_fork_clones_memory () =
  let m = mk () in
  let ok = ref false in
  ignore
    (M.spawn m ~name:"parent" (fun p ->
         let addr = Smod_vmem.Layout.data_base in
         Smod_vmem.Aspace.write_word p.Proc.aspace ~addr 99;
         let _child =
           M.sys_fork m p ~name:"child" ~child_body:(fun c ->
               let v = Smod_vmem.Aspace.read_word c.Proc.aspace ~addr in
               Smod_vmem.Aspace.write_word c.Proc.aspace ~addr 100;
               M.sys_exit m c v)
         in
         let status, _ = M.sys_wait m p in
         ok :=
           status = Sched.Exited 99 && Smod_vmem.Aspace.read_word p.Proc.aspace ~addr = 99));
  M.run m;
  Alcotest.(check bool) "fork isolation" true !ok

let test_wait_no_children () =
  let m = mk () in
  let got_echild = ref false in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         match M.sys_wait m p with
         | _ -> ()
         | exception Errno.Error (Errno.ECHILD, _) -> got_echild := true));
  M.run m;
  Alcotest.(check bool) "ECHILD" true !got_echild

let test_wait_blocks_until_child_exits () =
  let m = mk () in
  let order = ref [] in
  ignore
    (M.spawn m ~name:"parent" (fun p ->
         let _child =
           M.sys_fork m p ~name:"child" ~child_body:(fun c ->
               order := "child" :: !order;
               M.sys_exit m c 0)
         in
         ignore (M.sys_wait m p);
         order := "parent-after-wait" :: !order));
  M.run m;
  Alcotest.(check (list string)) "child ran before wait returned"
    [ "child"; "parent-after-wait" ] (List.rev !order)

let test_kill_blocked_process () =
  let m = mk () in
  let victim = M.spawn m ~name:"victim" (fun p ->
      let q = M.msgget m p ~key:1 in
      ignore (M.msgrcv m p ~qid:q ~mtype:1))
  in
  ignore
    (M.spawn m ~name:"killer" (fun _ -> M.kill m ~pid:victim.Proc.pid ~signal:Signal.sigkill));
  M.run m;
  Alcotest.(check bool) "victim killed" true
    (match victim.Proc.state with Proc.Zombie (Sched.Signaled 9) -> true | _ -> false)

let test_kill_ready_process () =
  let m = mk () in
  let victim = M.spawn m ~name:"victim" (fun _ -> ()) in
  ignore
    (M.spawn m ~name:"killer" (fun _ -> M.kill m ~pid:victim.Proc.pid ~signal:Signal.sigkill));
  M.run m;
  Alcotest.(check bool) "terminal state" true (Proc.is_zombie victim)

let test_pending_signal_delivery () =
  let m = mk () in
  let victim =
    M.spawn m ~name:"victim" (fun p ->
        Sched.yield ();
        Sched.yield ();
        ignore p)
  in
  ignore
    (M.spawn m ~name:"sender" (fun _ -> M.kill m ~pid:victim.Proc.pid ~signal:Signal.sigusr1));
  M.run m;
  Alcotest.(check bool) "SIGUSR1 pending" true
    (List.mem Signal.sigusr1 victim.Proc.pending_signals)

let test_sigchld_on_exit () =
  let m = mk () in
  let parent =
    M.spawn m ~name:"parent" (fun p ->
        let _ = M.sys_fork m p ~name:"c" ~child_body:(fun c -> M.sys_exit m c 0) in
        Sched.yield ())
  in
  M.run m;
  Alcotest.(check bool) "SIGCHLD pending" true
    (List.mem Signal.sigchld parent.Proc.pending_signals)

let test_kill_permission () =
  let m = mk () in
  let victim = M.spawn m ~uid:1000 ~daemon:true ~name:"victim" (fun p ->
      let q = M.msgget m p ~key:5 in
      ignore (M.msgrcv m p ~qid:q ~mtype:1))
  in
  let denied = ref false in
  ignore
    (M.spawn m ~uid:2000 ~name:"other" (fun p ->
         match M.syscall m p Sysno.kill [| victim.Proc.pid; Signal.sigkill |] with
         | _ -> ()
         | exception Errno.Error (Errno.EPERM, _) -> denied := true));
  M.run m;
  Alcotest.(check bool) "EPERM across uids" true !denied

let test_deadlock_detection () =
  let m = mk () in
  ignore
    (M.spawn m ~name:"stuck" (fun p ->
         let q = M.msgget m p ~key:9 in
         ignore (M.msgrcv m p ~qid:q ~mtype:1)));
  Alcotest.(check bool) "deadlock raised" true
    (match M.run m with () -> false | exception M.Deadlock _ -> true)

let test_daemon_allowed_to_block () =
  let m = mk () in
  ignore
    (M.spawn m ~daemon:true ~name:"daemon" (fun p ->
         let q = M.msgget m p ~key:9 in
         ignore (M.msgrcv m p ~qid:q ~mtype:1)));
  M.run m;
  Alcotest.(check bool) "no deadlock for daemons" true true

let test_crash_segv_records_core () =
  let m = mk () in
  let p =
    M.spawn m ~name:"crasher" (fun p ->
        ignore (Smod_vmem.Aspace.read_word p.Proc.aspace ~addr:0x70000000))
  in
  M.run m;
  Alcotest.(check bool) "signaled SIGSEGV" true
    (match p.Proc.state with Proc.Zombie (Sched.Signaled 11) -> true | _ -> false);
  Alcotest.(check bool) "core dumped" true p.Proc.core_dumped;
  Alcotest.(check int) "machine recorded it" 1 (List.length (M.core_dumps m))

let test_no_core_dump_flag () =
  let m = mk () in
  let p =
    M.spawn m ~name:"crasher" (fun p ->
        p.Proc.no_core_dump <- true;
        ignore (Smod_vmem.Aspace.read_word p.Proc.aspace ~addr:0x70000000))
  in
  M.run m;
  Alcotest.(check bool) "no core" false p.Proc.core_dumped;
  Alcotest.(check int) "none recorded" 0 (List.length (M.core_dumps m))

let test_suspend_resume () =
  let m = mk () in
  let log = ref [] in
  let main =
    M.spawn m ~name:"main" (fun p ->
        let sibling =
          M.spawn_thread m p ~name:"sibling" (fun _ -> log := "sibling" :: !log)
        in
        ignore sibling;
        let suspended = M.suspend_address_space m p.Proc.aspace ~except:p.Proc.pid in
        Sched.yield ();
        log := "main-after-yield" :: !log;
        M.resume_pids m suspended)
  in
  ignore main;
  M.run m;
  Alcotest.(check (list string)) "sibling deferred past resume"
    [ "main-after-yield"; "sibling" ] (List.rev !log)

let test_spawn_thread_shares_memory () =
  let m = mk () in
  let ok = ref false in
  ignore
    (M.spawn m ~name:"main" (fun p ->
         let addr = Smod_vmem.Layout.data_base in
         let _t =
           M.spawn_thread m p ~name:"t" (fun _ ->
               Smod_vmem.Aspace.write_word p.Proc.aspace ~addr 7)
         in
         Sched.yield ();
         ok := Smod_vmem.Aspace.read_word p.Proc.aspace ~addr = 7));
  M.run m;
  Alcotest.(check bool) "thread wrote shared memory" true !ok

(* ------------------------------ msgq ------------------------------- *)

let test_msgq_fifo () =
  let m = mk () in
  let got = ref [] in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let q = M.msgget m p ~key:1 in
         M.msgsnd m p ~qid:q ~mtype:1 (Bytes.of_string "a");
         M.msgsnd m p ~qid:q ~mtype:1 (Bytes.of_string "b");
         M.msgsnd m p ~qid:q ~mtype:1 (Bytes.of_string "c");
         for _ = 1 to 3 do
           let _, b = M.msgrcv m p ~qid:q ~mtype:0 in
           got := Bytes.to_string b :: !got
         done));
  M.run m;
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] (List.rev !got)

let test_msgq_type_filter () =
  let m = mk () in
  let got = ref [] in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let q = M.msgget m p ~key:1 in
         M.msgsnd m p ~qid:q ~mtype:5 (Bytes.of_string "five");
         M.msgsnd m p ~qid:q ~mtype:2 (Bytes.of_string "two");
         M.msgsnd m p ~qid:q ~mtype:5 (Bytes.of_string "five2");
         let _, b = M.msgrcv m p ~qid:q ~mtype:2 in
         got := Bytes.to_string b :: !got;
         let mt, _ = M.msgrcv m p ~qid:q ~mtype:0 in
         got := string_of_int mt :: !got));
  M.run m;
  Alcotest.(check (list string)) "type filter then head" [ "two"; "5" ] (List.rev !got)

let test_msgq_negative_mtype () =
  let m = mk () in
  let got = ref 0 in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let q = M.msgget m p ~key:1 in
         M.msgsnd m p ~qid:q ~mtype:7 Bytes.empty;
         M.msgsnd m p ~qid:q ~mtype:3 Bytes.empty;
         M.msgsnd m p ~qid:q ~mtype:5 Bytes.empty;
         let mt, _ = M.msgrcv m p ~qid:q ~mtype:(-6) in
         got := mt));
  M.run m;
  Alcotest.(check int) "lowest <= 6" 3 !got

let test_msgq_blocking_recv () =
  let m = mk () in
  let got = ref "" in
  ignore
    (M.spawn m ~name:"receiver" (fun p ->
         let q = M.msgget m p ~key:1 in
         let _, b = M.msgrcv m p ~qid:q ~mtype:1 in
         got := Bytes.to_string b));
  ignore
    (M.spawn m ~name:"sender" (fun p ->
         let q = M.msgget m p ~key:1 in
         M.msgsnd m p ~qid:q ~mtype:1 (Bytes.of_string "wake up")));
  M.run m;
  Alcotest.(check string) "blocked receiver woken" "wake up" !got

let test_msgq_full_blocks_sender () =
  let m = mk () in
  let sent = ref 0 in
  ignore
    (M.spawn m ~name:"sender" (fun p ->
         let q = M.msgget m p ~key:1 in
         for _ = 1 to 5 do
           M.msgsnd m p ~qid:q ~mtype:1 (Bytes.create 4000);
           incr sent
         done));
  ignore
    (M.spawn m ~name:"drainer" (fun p ->
         let q = M.msgget m p ~key:1 in
         for _ = 1 to 5 do
           ignore (M.msgrcv m p ~qid:q ~mtype:1)
         done));
  M.run m;
  Alcotest.(check int) "all five sent after drain" 5 !sent

let test_msgq_oversized_message () =
  let m = mk () in
  let rejected = ref false in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let q = M.msgget m p ~key:1 in
         match M.msgsnd m p ~qid:q ~mtype:1 (Bytes.create 999999) with
         | () -> ()
         | exception Errno.Error (Errno.EINVAL, _) -> rejected := true));
  M.run m;
  Alcotest.(check bool) "EINVAL" true !rejected

let test_msgq_bad_mtype () =
  let m = mk () in
  let rejected = ref false in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let q = M.msgget m p ~key:1 in
         match M.msgsnd m p ~qid:q ~mtype:0 Bytes.empty with
         | () -> ()
         | exception Errno.Error (Errno.EINVAL, _) -> rejected := true));
  M.run m;
  Alcotest.(check bool) "mtype must be positive" true !rejected

let test_msgq_remove_wakes_with_eidrm () =
  let m = mk () in
  let got_eidrm = ref false in
  ignore
    (M.spawn m ~name:"receiver" (fun p ->
         let q = M.msgget m p ~key:1 in
         match M.msgrcv m p ~qid:q ~mtype:1 with
         | _ -> ()
         | exception Errno.Error (Errno.EIDRM, _) -> got_eidrm := true));
  ignore
    (M.spawn m ~name:"remover" (fun p ->
         let q = M.msgget m p ~key:1 in
         M.msgctl_remove m p ~qid:q));
  M.run m;
  Alcotest.(check bool) "EIDRM" true !got_eidrm

let test_msgq_same_key_same_queue () =
  let m = mk () in
  let q1 = ref 0 and q2 = ref 0 in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         q1 := M.msgget m p ~key:77;
         q2 := M.msgget m p ~key:77));
  M.run m;
  Alcotest.(check int) "same qid" !q1 !q2

let test_msgq_depth () =
  let m = mk () in
  let depth = ref (-1) in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let q = M.msgget m p ~key:1 in
         M.msgsnd m p ~qid:q ~mtype:1 Bytes.empty;
         M.msgsnd m p ~qid:q ~mtype:1 Bytes.empty;
         depth := M.msgq_depth m ~qid:q));
  M.run m;
  Alcotest.(check int) "two queued" 2 !depth

(* ----------------------------- syscalls ---------------------------- *)

let test_enosys () =
  let m = mk () in
  let got = ref false in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         match M.syscall m p 999 [||] with
         | _ -> ()
         | exception Errno.Error (Errno.ENOSYS, _) -> got := true));
  M.run m;
  Alcotest.(check bool) "ENOSYS" true !got

let test_register_syscall () =
  let m = mk () in
  M.register_syscall m 400 ~name:"double" (fun _ _ args -> args.(0) * 2);
  let got = ref 0 in
  ignore (M.spawn m ~name:"p" (fun p -> got := M.syscall m p 400 [| 21 |]));
  M.run m;
  Alcotest.(check int) "custom syscall" 42 !got

let test_register_syscall_collision () =
  let m = mk () in
  Alcotest.(check bool) "collision rejected" true
    (match M.register_syscall m Sysno.getpid ~name:"dup" (fun _ _ _ -> 0) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_syscall_charges_traps () =
  let m = mk () in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let clock = M.clock m in
         let t0 = Clock.now_cycles clock in
         ignore (M.sys_getpid m p);
         let dt = Clock.now_cycles clock -. t0 in
         Alcotest.(check bool) "charged ~394 cycles" true (dt > 300.0 && dt < 500.0)));
  M.run m

let test_obreak_syscall () =
  let m = mk () in
  let ok = ref false in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let base = Smod_vmem.Aspace.heap_base p.Proc.aspace in
         M.sys_obreak m p (base + 8192);
         Smod_vmem.Aspace.write_word p.Proc.aspace ~addr:(base + 4096) 5;
         ok := Smod_vmem.Aspace.read_word p.Proc.aspace ~addr:(base + 4096) = 5));
  M.run m;
  Alcotest.(check bool) "heap grown via syscall" true !ok

let test_obreak_enomem () =
  let m = mk () in
  let got = ref false in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         match M.sys_obreak m p 0 with
         | () -> ()
         | exception Errno.Error (Errno.ENOMEM, _) -> got := true));
  M.run m;
  Alcotest.(check bool) "ENOMEM" true !got

let test_ptrace_allowed_same_uid () =
  let m = mk () in
  let target = M.spawn m ~uid:500 ~daemon:true ~name:"target" (fun p ->
      let q = M.msgget m p ~key:2 in
      ignore (M.msgrcv m p ~qid:q ~mtype:1))
  in
  ignore
    (M.spawn m ~uid:500 ~name:"tracer" (fun p ->
         Sched.yield ();
         M.sys_ptrace_attach m p ~target_pid:target.Proc.pid));
  M.run m;
  Alcotest.(check bool) "traced" true (target.Proc.traced_by <> None)

let test_ptrace_denied_no_ptrace_flag () =
  let m = mk () in
  let target = M.spawn m ~uid:500 ~daemon:true ~name:"target" (fun p ->
      p.Proc.no_ptrace <- true;
      let q = M.msgget m p ~key:2 in
      ignore (M.msgrcv m p ~qid:q ~mtype:1))
  in
  let denied = ref false in
  ignore
    (M.spawn m ~uid:500 ~name:"tracer" (fun p ->
         Sched.yield ();
         match M.sys_ptrace_attach m p ~target_pid:target.Proc.pid with
         | () -> ()
         | exception Errno.Error (Errno.EPERM, _) -> denied := true));
  M.run m;
  Alcotest.(check bool) "EPERM for protected target" true !denied

let test_execve_resets_address_space () =
  let m = mk () in
  let hook_hit = ref false in
  M.add_exec_hook m (fun _ _ image -> if image = "newimage" then hook_hit := true);
  let ok = ref false in
  ignore
    (M.spawn m ~name:"p" (fun p ->
         let addr = Smod_vmem.Layout.data_base in
         Smod_vmem.Aspace.write_word p.Proc.aspace ~addr 42;
         M.sys_execve m p ~image:"newimage";
         ok := Smod_vmem.Aspace.read_word p.Proc.aspace ~addr = 0));
  M.run m;
  Alcotest.(check bool) "exec hook ran" true !hook_hit;
  Alcotest.(check bool) "address space reset" true !ok

let test_context_switch_accounting () =
  let m = mk () in
  ignore (M.spawn m ~name:"a" (fun _ -> Sched.yield ()));
  ignore (M.spawn m ~name:"b" (fun _ -> Sched.yield ()));
  M.run m;
  Alcotest.(check bool) "switches counted" true (M.context_switches m >= 3)

(* ------------------------------ trace ------------------------------ *)

let event = Alcotest.testable (Fmt.of_to_string M.render_event) ( = )

(* Every kind's label, byte for byte: test/trace.expected shows only
   forced fork, start_session, session_info, detach and exit. *)
let test_render_event_labels () =
  let module_name = "seclibc" in
  List.iter
    (fun (e, label) -> Alcotest.(check string) label label (M.render_event e))
    [
      (M.Exit (Sched.Exited 0), "exit exited(0)");
      (M.Exit (Sched.Exited 3), "exit exited(3)");
      (M.Exit (Sched.Signaled Signal.sigkill), "exit signaled(SIGKILL)");
      (M.Core_dumped Signal.sigsegv, "core dumped (SIGSEGV)");
      (M.Abort { errno = Errno.EPERM; context = "smod_call" }, "abort: EPERM in smod_call");
      (M.Fork { child = 7; name = "child" }, "fork -> pid 7 (child)");
      ( M.Forced_fork { parent = "demo-client"; child = 2; name = "smod-handle-1" },
        "forced fork of demo-client -> pid 2 (smod-handle-1)" );
      (M.Execve "/bin/sh", "execve /bin/sh");
      ( M.Start_session { sid = 1; module_name; client = 1; handle = 2 },
        "start_session sid=1 module=seclibc client=1 handle=2" );
      ( M.Session_info { client = 1; handle = 2 },
        "session_info: pair 1/2 sharing [0x04000000,0xbfc00000)" );
      (M.Detach_session { sid = 1; module_name }, "detach session 1 (module seclibc)");
      ( M.Pooled_spawn { pid = 5; module_name },
        "spawned pooled handle pid=5 for module seclibc" );
      (M.Pooled_retire { pid = 5; module_name }, "retire pooled handle pid=5 (module seclibc)");
      (M.Fiber_done { sid = 4; live = 3 }, "fiber done sid=4 (3 live)");
    ]

(* The kernel's six kinds come from its own paths, in scheduling order:
   the parent forks and waits, the crasher faults, the aborter's syscall
   failure goes unhandled, then the child execs and exits. *)
let test_kernel_trace_events () =
  let m = mk () in
  let child_pid = ref 0 in
  ignore
    (M.spawn m ~name:"parent" (fun p ->
         let child =
           M.sys_fork m p ~name:"child" ~child_body:(fun c ->
               M.sys_execve m c ~image:"img";
               M.sys_exit m c 7)
         in
         child_pid := child.Proc.pid;
         ignore (M.sys_wait m p)));
  ignore
    (M.spawn m ~name:"crasher" (fun p ->
         ignore (Smod_vmem.Aspace.read_word p.Proc.aspace ~addr:0x70000000)));
  ignore (M.spawn m ~name:"aborter" (fun _ -> Errno.raise_errno Errno.EPERM "probe"));
  M.run m;
  let trace = M.trace m in
  Alcotest.(check (list (pair string event)))
    "actors and events in order"
    [
      ("parent", M.Fork { child = !child_pid; name = "child" });
      ("crasher", M.Core_dumped Signal.sigsegv);
      ("crasher", M.Exit (Sched.Signaled Signal.sigsegv));
      ("aborter", M.Abort { errno = Errno.EPERM; context = "probe" });
      ("aborter", M.Core_dumped Signal.sigterm);
      ("aborter", M.Exit (Sched.Signaled Signal.sigterm));
      ("child", M.Execve "img");
      ("child", M.Exit (Sched.Exited 7));
      ("parent", M.Exit (Sched.Exited 0));
    ]
    (List.combine (List.map (fun e -> e.Trace.actor) (Trace.events trace)) (Trace.values trace))

(* The machine's trace is a window of the newest 256 events: session
   churn (start_session, session_info, detach, over and over) run to
   twice that leaves exactly 256, at most 8 words per event: per slot an
   unboxed timestamp, an actor pointer and an event pointer, plus the
   event's own block of ints and shared strings.  Labels formatted on
   emit would retain 14.7 for this mix. *)
let test_trace_words_per_event () =
  let m = mk () in
  let trace = M.trace m and clock = M.clock m in
  let capacity = 256 in
  (* Held by the registry entry and the handle processes in a real world. *)
  let module_name = String.concat "-" [ "kn"; "4" ] in
  let handle_names = Array.init 4 (Printf.sprintf "pool-handle-kn-4-%d") in
  for k = 0 to (2 * capacity) - 1 do
    let sid = 1 + (k / 3) in
    let client = 100 + sid and handle = sid mod 4 in
    let actor, e =
      match k mod 3 with
      | 0 -> ("kernel", M.Start_session { sid; module_name; client; handle })
      | 1 -> (handle_names.(handle), M.Session_info { client; handle })
      | _ -> ("kernel", M.Detach_session { sid; module_name })
    in
    Clock.charge clock Cost.Trap_enter;
    Trace.emit trace ~clock ~actor e
  done;
  Alcotest.(check int) "the ring holds 256 events" capacity
    (List.length (Trace.values trace));
  let per_event = float (Obj.reachable_words (Obj.repr trace)) /. float capacity in
  let label = Printf.sprintf "%.2f words per event, at most 8" per_event in
  Alcotest.(check bool) label true (per_event <= 8.0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "kern"
    [
      ( "lifecycle",
        [
          tc "spawn runs body" test_spawn_runs_body;
          tc "fifo order" test_spawn_order_fifo;
          tc "exit status" test_exit_status;
          tc "normal return = exit 0" test_normal_return_is_exit0;
          tc "yield interleaves" test_yield_interleaves;
          tc "getpid" test_getpid;
          tc "fork and wait" test_fork_and_wait;
          tc "fork clones memory" test_fork_clones_memory;
          tc "wait with no children" test_wait_no_children;
          tc "wait blocks" test_wait_blocks_until_child_exits;
          tc "kill blocked process" test_kill_blocked_process;
          tc "kill ready process" test_kill_ready_process;
          tc "pending signals" test_pending_signal_delivery;
          tc "SIGCHLD on exit" test_sigchld_on_exit;
          tc "kill permission" test_kill_permission;
          tc "deadlock detection" test_deadlock_detection;
          tc "daemons may block" test_daemon_allowed_to_block;
          tc "segv crash dumps core" test_crash_segv_records_core;
          tc "no_core_dump flag" test_no_core_dump_flag;
          tc "suspend/resume threads" test_suspend_resume;
          tc "threads share memory" test_spawn_thread_shares_memory;
        ] );
      ( "msgq",
        [
          tc "fifo" test_msgq_fifo;
          tc "type filter" test_msgq_type_filter;
          tc "negative mtype" test_msgq_negative_mtype;
          tc "blocking recv" test_msgq_blocking_recv;
          tc "full queue blocks sender" test_msgq_full_blocks_sender;
          tc "oversized message EINVAL" test_msgq_oversized_message;
          tc "bad mtype EINVAL" test_msgq_bad_mtype;
          tc "remove wakes EIDRM" test_msgq_remove_wakes_with_eidrm;
          tc "same key same queue" test_msgq_same_key_same_queue;
          tc "depth introspection" test_msgq_depth;
        ] );
      ( "syscalls",
        [
          tc "ENOSYS" test_enosys;
          tc "register custom" test_register_syscall;
          tc "registration collision" test_register_syscall_collision;
          tc "trap cost charged" test_syscall_charges_traps;
          tc "obreak" test_obreak_syscall;
          tc "obreak ENOMEM" test_obreak_enomem;
          tc "ptrace same uid" test_ptrace_allowed_same_uid;
          tc "ptrace denied (no_ptrace)" test_ptrace_denied_no_ptrace_flag;
          tc "execve resets + hooks" test_execve_resets_address_space;
          tc "context switch accounting" test_context_switch_accounting;
        ] );
      ( "trace",
        [
          tc "render_event labels" test_render_event_labels;
          tc "kernel events typed" test_kernel_trace_events;
          tc "words per event" test_trace_words_per_event;
        ] );
    ]
