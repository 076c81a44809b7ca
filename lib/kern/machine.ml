module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Trace = Smod_sim.Trace
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Phys = Smod_vmem.Phys
module Prot = Smod_vmem.Prot
module Ring = Smod_ring.Ring

exception Deadlock of string

(* Observability (lib/metrics): the dispatch and IPC paths the paper's
   Figure-8 numbers are made of.  One SMOD call is 2 context switches,
   2 msgq sends and 2 receives; the counters let tests assert exactly
   that (test_integration.ml) and the bench JSON track it over time. *)
let m_scope = Smod_metrics.scope "kern"
let m_context_switches = Smod_metrics.Scope.counter m_scope "context_switches"
let m_syscalls = Smod_metrics.Scope.counter m_scope "syscalls"
let m_msgq_sends = Smod_metrics.Scope.counter m_scope "msgq_sends"
let m_msgq_recvs = Smod_metrics.Scope.counter m_scope "msgq_recvs"
let m_msgq_bytes = Smod_metrics.Scope.counter m_scope "msgq_bytes"
let m_sched_wakeups = Smod_metrics.Scope.counter m_scope "sched_wakeups"
let m_procs_spawned = Smod_metrics.Scope.counter m_scope "procs_spawned"

let m_msgq_message_bytes =
  Smod_metrics.Scope.histogram m_scope "msgq_message_bytes"
    ~edges:[| 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0 |]

(* Dispatch-ring lifecycle (the rest of the ring.* scope lives in
   lib/secmodule where submission/claiming happen). *)
let m_ring_scope = Smod_metrics.scope "ring"
let m_ring_setups = Smod_metrics.Scope.counter m_ring_scope "setups"
let m_ring_teardowns = Smod_metrics.Scope.counter m_ring_scope "teardowns"

type msgq = {
  key : int;
  mutable messages : (int * bytes) list;  (* in arrival order *)
  mutable wait_recv : int list;
  mutable wait_send : int list;
  mutable cur_bytes : int;
  max_bytes : int;
  mutable removed : bool;
}

(* One registered dispatch ring per client pid.  [rr_stamped] is the
   kernel-private admission cursor: the handle may only claim slots with
   seq below it, and it only advances through [sys_smod_call_batch]'s
   stamping loop.  [rr_claimed] is the handle's claim cursor, also
   kernel-private — header words in the (client-writable) ring memory
   are never trusted for admission, ordering, or replay protection.

   The shadow is what the kernel decided about each stamped slot,
   recorded at stamp time in three flat int columns indexed by seq mod
   nslots.  The handle claims from these columns — never from the
   (client-writable) ring slots — so a client that rewrites a slot's
   m_id/func_id/verdict/state words after admission can neither change
   which function runs nor resurrect a denied or already-executed slot.
   [rr_seqs] holds the slot's seq when the kernel allowed it and
   [lnot seq] (negative) when it denied it, and -1 until the slot is
   first stamped, so the one claim rule — the record is an allow
   stamped for exactly this seq — is one comparison that also refuses a
   stale record whose ring index has since wrapped. *)
type ring_reg = {
  rr_base : int;
  rr_nslots : int;
  mutable rr_stamped : int;
  mutable rr_claimed : int;
  rr_seqs : int array;
  rr_m_ids : int array;
  rr_func_ids : int array;
}

(* Trace events as data: each payload holds ints and strings the caller
   already holds, and [render_event] formats one only when the trace is
   read. *)
type event =
  | Exit of Sched.exit_status
  | Core_dumped of int
  | Abort of { errno : Errno.t; context : string }
  | Fork of { child : int; name : string }
  | Forced_fork of { parent : string; child : int; name : string }
  | Execve of string
  | Start_session of { sid : int; module_name : string; client : int; handle : int }
  | Session_info of { client : int; handle : int }
  | Detach_session of { sid : int; module_name : string }
  | Pooled_spawn of { pid : int; module_name : string }
  | Pooled_retire of { pid : int; module_name : string }
  | Fiber_done of { sid : int; live : int }

let render_event = function
  | Exit status -> Format.asprintf "exit %a" Sched.pp_exit_status status
  | Core_dumped signal -> Printf.sprintf "core dumped (%s)" (Signal.name signal)
  | Abort { errno; context } -> Printf.sprintf "abort: %s in %s" (Errno.to_string errno) context
  | Fork { child; name } -> Printf.sprintf "fork -> pid %d (%s)" child name
  | Forced_fork { parent; child; name } ->
      Printf.sprintf "forced fork of %s -> pid %d (%s)" parent child name
  | Execve image -> Printf.sprintf "execve %s" image
  | Start_session { sid; module_name; client; handle } ->
      Printf.sprintf "start_session sid=%d module=%s client=%d handle=%d" sid module_name client
        handle
  | Session_info { client; handle } ->
      Printf.sprintf "session_info: pair %d/%d sharing [0x%08x,0x%08x)" client handle
        Layout.share_lo Layout.share_hi
  | Detach_session { sid; module_name } ->
      Printf.sprintf "detach session %d (module %s)" sid module_name
  | Pooled_spawn { pid; module_name } ->
      Printf.sprintf "spawned pooled handle pid=%d for module %s" pid module_name
  | Pooled_retire { pid; module_name } ->
      Printf.sprintf "retire pooled handle pid=%d (module %s)" pid module_name
  | Fiber_done { sid; live } -> Printf.sprintf "fiber done sid=%d (%d live)" sid live

type t = {
  clock : Clock.t;
  trace : event Trace.t;
  phys : Phys.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  ready_queue : int Queue.t;
  mutable cur : int option;
  mutable last_dispatched : int option;
  syscalls : (int, string * (t -> Proc.t -> int array -> int)) Hashtbl.t;
  msgqs : (int, msgq) Hashtbl.t;
  mutable next_qid : int;
  mutable exec_hooks : (t -> Proc.t -> string -> unit) list;
  mutable syscall_filter : (Proc.t -> int -> int array -> allow_deny) option;
  mutable n_context_switches : int;
  mutable n_syscalls : int;
  mutable cores : (int * string) list;
  rings : (int, ring_reg) Hashtbl.t;  (* client pid -> registration *)
}

and allow_deny = [ `Allow | `Deny of Errno.t ]

type syscall_handler = t -> Proc.t -> int array -> int

let clock t = t.clock
let trace t = t.trace
let phys t = t.phys
let proc t pid = Hashtbl.find_opt t.procs pid

let proc_exn t pid =
  match proc t pid with
  | Some p -> p
  | None -> Errno.raise_errno Errno.ESRCH (Printf.sprintf "pid %d" pid)

let current t = Option.bind t.cur (proc t)

let live_procs t =
  Hashtbl.fold (fun _ p acc -> if Proc.is_zombie p then acc else p :: acc) t.procs []

let enqueue_ready t (p : Proc.t) =
  p.state <- Proc.Ready;
  Queue.add p.pid t.ready_queue;
  Clock.charge t.clock Cost.Sched_enqueue

(* ------------------------------------------------------------------ *)
(* Address spaces                                                      *)
(* ------------------------------------------------------------------ *)

let standard_aspace t ~name =
  let a = Aspace.create ~phys:t.phys ~clock:t.clock ~name in
  let text_pages = 64 and data_pages = 16 in
  Aspace.add_entry a ~start_addr:Layout.text_base
    ~size:(text_pages * Layout.page_size)
    ~prot:Prot.rx ~kind:Aspace.Text ~name:"text";
  Aspace.add_entry a ~start_addr:Layout.data_base
    ~size:(data_pages * Layout.page_size)
    ~prot:Prot.rw ~kind:Aspace.Data ~name:"data";
  let stack_size = Layout.default_stack_pages * Layout.page_size in
  Aspace.add_entry a
    ~start_addr:(Layout.stack_top - stack_size)
    ~size:stack_size ~prot:Prot.rw ~kind:Aspace.Stack ~name:"stack";
  Aspace.set_heap_base a (Layout.data_base + (data_pages * Layout.page_size));
  a

(* ------------------------------------------------------------------ *)
(* Process lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let alloc_pid t =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  pid

let send_signal (p : Proc.t) signal = p.pending_signals <- p.pending_signals @ [ signal ]

let finish t (p : Proc.t) status =
  p.state <- Proc.Zombie status;
  p.resume <- Proc.Finished;
  List.iter (fun hook -> hook p) p.exit_hooks;
  p.exit_hooks <- [];
  Trace.emit t.trace ~clock:t.clock ~actor:p.name (Exit status);
  (* Release the address space unless a live sibling (thread) shares it;
     the zombie only needs its exit status for the reaper. *)
  let shared_with_live =
    Hashtbl.fold
      (fun _ (q : Proc.t) acc ->
        acc || (q != p && (not (Proc.is_zombie q)) && q.aspace == p.aspace))
      t.procs false
  in
  if not shared_with_live then Aspace.destroy p.aspace;
  (* Notify the parent: SIGCHLD plus a wakeup if it is in wait(). *)
  match proc t p.ppid with
  | None -> ()
  | Some parent -> (
      send_signal parent Signal.sigchld;
      match parent.state with
      | Proc.Blocked Sched.Wait_child ->
          parent.state <- Proc.Ready;
          Queue.add parent.pid t.ready_queue;
          Clock.charge t.clock Cost.Sched_wakeup
      | _ -> ())

let crash t (p : Proc.t) signal =
  if not p.no_core_dump then begin
    p.core_dumped <- true;
    t.cores <- (p.pid, p.name) :: t.cores;
    Trace.emit t.trace ~clock:t.clock ~actor:p.name (Core_dumped signal)
  end;
  finish t p (Sched.Signaled signal)

let handle_body_exn t (p : Proc.t) = function
  | Sched.Proc_exit code -> finish t p (Sched.Exited code)
  | Sched.Proc_killed signal -> finish t p (Sched.Signaled signal)
  | Aspace.Segv _ | Aspace.Prot_violation _ -> crash t p Signal.sigsegv
  | Errno.Error (e, ctx) ->
      (* An unhandled syscall failure aborts the simulated program. *)
      Trace.emit t.trace ~clock:t.clock ~actor:p.name (Abort { errno = e; context = ctx });
      crash t p Signal.sigterm
  | exn -> raise exn

let run_body t (p : Proc.t) body () =
  let open Effect.Deep in
  match_with body p
    {
      retc = (fun () -> finish t p (Sched.Exited 0));
      exnc = (fun exn -> handle_body_exn t p exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sched.Block reason ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.resume <- Proc.Cont k;
                  p.state <- Proc.Blocked reason)
          | Sched.Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.resume <- Proc.Cont k;
                  enqueue_ready t p)
          | _ -> None);
    }

let make_proc t ?(daemon = false) ?aspace ?(uid = 1000) ~ppid ~role ~name body =
  let aspace = match aspace with Some a -> a | None -> standard_aspace t ~name in
  let pid = alloc_pid t in
  let p : Proc.t =
    {
      pid;
      ppid;
      name;
      aspace;
      state = Proc.Ready;
      resume = Proc.Finished;
      killed = None;
      sp = Layout.stack_top - 64;
      fp = Layout.stack_top - 64;
      uid;
      gid = uid;
      no_core_dump = false;
      no_ptrace = false;
      ring = 3;
      role;
      daemon;
      pending_signals = [];
      children = [];
      traced_by = None;
      core_dumped = false;
      exit_hooks = [];
    }
  in
  p.resume <- Proc.Start (run_body t p body);
  Hashtbl.replace t.procs pid p;
  Queue.add pid t.ready_queue;
  Smod_metrics.Counter.incr m_procs_spawned;
  p

let spawn t ?daemon ?aspace ?uid ~name body =
  make_proc t ?daemon ?aspace ?uid ~ppid:0 ~role:Proc.Standalone ~name body

let spawn_thread t (parent : Proc.t) ~name body =
  let child = make_proc t ~aspace:parent.aspace ~uid:parent.uid ~ppid:parent.ppid
      ~role:parent.role ~name body
  in
  (* Threads share the stack region but get their own stack cursor. *)
  child.sp <- parent.sp - 8192;
  child.fp <- child.sp;
  child

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let dispatch t (p : Proc.t) =
  if t.last_dispatched <> Some p.pid then begin
    Clock.charge t.clock Cost.Context_switch;
    t.n_context_switches <- t.n_context_switches + 1;
    Smod_metrics.Counter.incr m_context_switches
  end;
  t.last_dispatched <- Some p.pid;
  t.cur <- Some p.pid;
  let cell = p.resume in
  p.resume <- Proc.Finished;
  p.state <- Proc.Running;
  (match (cell, p.killed) with
  | Proc.Finished, _ -> ()
  | _, Some signal -> (
      p.killed <- None;
      match cell with
      | Proc.Cont k -> Effect.Deep.discontinue k (Sched.Proc_killed signal)
      | Proc.Start _ | Proc.Finished -> finish t p (Sched.Signaled signal))
  | Proc.Start f, None -> f ()
  | Proc.Cont k, None -> Effect.Deep.continue k ());
  t.cur <- None

let rec step t =
  match Queue.take_opt t.ready_queue with
  | None -> false
  | Some pid -> (
      match proc t pid with
      | None -> step t
      | Some p -> (
          match p.state with
          | Proc.Ready ->
              dispatch t p;
              true
          | Proc.Running | Proc.Blocked _ | Proc.Zombie _ ->
              (* Stale queue entry (e.g. the process was suspended or killed
                 after being enqueued). *)
              step t))

let run t =
  while step t do
    ()
  done;
  let stuck =
    List.filter (fun (p : Proc.t) -> Proc.is_blocked p && not p.daemon) (live_procs t)
  in
  match stuck with
  | [] -> ()
  | ps ->
      let desc =
        String.concat ", "
          (List.map
             (fun (p : Proc.t) -> Format.asprintf "%s(pid %d): %a" p.name p.pid Proc.pp_state p.state)
             ps)
      in
      raise (Deadlock desc)

let wakeup t pid =
  match proc t pid with
  | Some p when Proc.is_blocked p ->
      p.state <- Proc.Ready;
      Queue.add pid t.ready_queue;
      Clock.charge t.clock Cost.Sched_wakeup;
      Smod_metrics.Counter.incr m_sched_wakeups
  | Some _ | None -> ()

let wake t (wq : Sched.waitq) =
  (* Drain a Sched wait queue: the wake half of wait_on/wake lives here
     because the machine owns the ready queue. *)
  let pids = wq.Sched.wq_pids in
  wq.Sched.wq_pids <- [];
  List.iter (wakeup t) pids;
  List.length pids

let block_current t (p : Proc.t) reason =
  assert (t.cur = Some p.pid);
  Effect.perform (Sched.Block reason)

let suspend_address_space t aspace ~except =
  (* The kernel walks the process table looking for siblings — cheap, as
     §4.4 notes, but not free. *)
  Clock.charge_cycles t.clock (150.0 +. (35.0 *. float_of_int (Hashtbl.length t.procs)));
  let suspended = ref [] in
  Hashtbl.iter
    (fun pid (p : Proc.t) ->
      if pid <> except && p.aspace == aspace then
        match p.state with
        | Proc.Ready ->
            p.state <- Proc.Blocked Sched.Suspended;
            suspended := pid :: !suspended
        | Proc.Running | Proc.Blocked _ | Proc.Zombie _ -> ())
    t.procs;
  (* Ready-queue entries for suspended pids are now stale; [step] skips
     them because the state is no longer [Ready]. *)
  !suspended

let resume_pids t pids =
  List.iter
    (fun pid ->
      match proc t pid with
      | Some p when p.state = Proc.Blocked Sched.Suspended -> enqueue_ready t p
      | Some _ | None -> ())
    pids

(* ------------------------------------------------------------------ *)
(* Lifecycle syscalls                                                  *)
(* ------------------------------------------------------------------ *)

let sys_exit _t _p code = raise (Sched.Proc_exit code)

let kill t ~pid ~signal =
  let target = proc_exn t pid in
  if Proc.is_zombie target then ()
  else if signal = Signal.sigkill then begin
    match t.cur with
    | Some cur_pid when cur_pid = pid -> raise (Sched.Proc_killed signal)
    | _ ->
        target.killed <- Some signal;
        (match target.state with
        | Proc.Blocked _ ->
            target.state <- Proc.Ready;
            Queue.add pid t.ready_queue
        | Proc.Ready | Proc.Running | Proc.Zombie _ -> ());
        (* A killed process that never ran, or whose continuation is gone,
           can be finished immediately. *)
        if target.resume = Proc.Finished && t.cur <> Some pid then begin
          target.killed <- None;
          finish t target (Sched.Signaled signal)
        end
  end
  else send_signal target signal

let sys_wait t (p : Proc.t) =
  let find_zombie () =
    List.find_map
      (fun child_pid ->
        match proc t child_pid with
        | Some child when Proc.is_zombie child -> (
            match child.state with
            | Proc.Zombie status -> Some (child, status)
            | _ -> None)
        | _ -> None)
      p.children
  in
  if p.children = [] then Errno.raise_errno Errno.ECHILD "wait";
  let rec loop () =
    match find_zombie () with
    | Some (child, status) ->
        p.children <- List.filter (fun c -> c <> child.pid) p.children;
        Hashtbl.remove t.procs child.pid;
        (status, child.pid)
    | None ->
        block_current t p Sched.Wait_child;
        loop ()
  in
  loop ()

let sys_fork t (p : Proc.t) ~name ~child_body =
  Clock.charge t.clock Cost.Fork_base;
  let child_aspace = Aspace.clone p.aspace ~name in
  let child =
    make_proc t ~aspace:child_aspace ~uid:p.uid ~ppid:p.pid ~role:Proc.Standalone ~name
      child_body
  in
  child.sp <- p.sp;
  child.fp <- p.fp;
  p.children <- child.pid :: p.children;
  Trace.emit t.trace ~clock:t.clock ~actor:p.name (Fork { child = child.pid; name });
  child

let forced_fork t (p : Proc.t) ~name ~daemon ~role ~aspace ~body =
  Clock.charge t.clock Cost.Fork_base;
  let child = make_proc t ~daemon ~aspace ~uid:p.uid ~ppid:p.pid ~role ~name body in
  p.children <- child.pid :: p.children;
  Trace.emit t.trace ~clock:t.clock ~actor:"kernel"
    (Forced_fork { parent = p.name; child = child.pid; name });
  child

let add_exec_hook t hook = t.exec_hooks <- t.exec_hooks @ [ hook ]

let sys_execve t (p : Proc.t) ~image =
  Clock.charge t.clock Cost.Exec_base;
  List.iter (fun hook -> hook t p image) t.exec_hooks;
  (* Tear down the old image and build a pristine address space. *)
  Aspace.destroy p.aspace;
  p.aspace <- standard_aspace t ~name:(p.name ^ ":" ^ image);
  p.sp <- Layout.stack_top - 64;
  p.fp <- p.sp;
  Trace.emit t.trace ~clock:t.clock ~actor:p.name (Execve image)

(* ------------------------------------------------------------------ *)
(* Syscall table                                                       *)
(* ------------------------------------------------------------------ *)

let register_syscall t nr ~name handler =
  if Hashtbl.mem t.syscalls nr then
    invalid_arg (Printf.sprintf "syscall %d (%s) already registered" nr name);
  Hashtbl.replace t.syscalls nr (name, handler)

let set_syscall_filter t f = t.syscall_filter <- f

let syscall t p nr args =
  Clock.charge t.clock Cost.Trap_enter;
  t.n_syscalls <- t.n_syscalls + 1;
  Smod_metrics.Counter.incr m_syscalls;
  Fun.protect
    ~finally:(fun () -> Clock.charge t.clock Cost.Trap_exit)
    (fun () ->
      (match t.syscall_filter with
      | Some filter -> (
          match filter p nr args with
          | `Allow -> ()
          | `Deny e -> Errno.raise_errno e (Sysno.name nr ^ ": denied by syscall policy"))
      | None -> ());
      match Hashtbl.find_opt t.syscalls nr with
      | None -> Errno.raise_errno Errno.ENOSYS (Sysno.name nr)
      | Some (_, handler) -> handler t p args)

let getpid_handler _t (p : Proc.t) _args =
  Clock.charge _t.clock Cost.Getpid_body;
  match p.role with
  | Proc.Smod_handle { client_pid } ->
      (* §4.3: pid-related calls must report the client, not the handle. *)
      Clock.charge _t.clock Cost.Getpid_client_fixup;
      client_pid
  | Proc.Standalone | Proc.Smod_client _ -> p.pid

let sys_getpid t p = syscall t p Sysno.getpid [||]

let sys_obreak t p new_brk =
  ignore (syscall t p Sysno.obreak [| new_brk |])

let sys_ptrace_attach t p ~target_pid =
  ignore (syscall t p Sysno.ptrace [| 10 (* PT_ATTACH *); target_pid |])

(* ------------------------------------------------------------------ *)
(* SysV message queues                                                 *)
(* ------------------------------------------------------------------ *)

let msgq_exn t qid =
  match Hashtbl.find_opt t.msgqs qid with
  | Some q when not q.removed -> q
  | Some _ -> Errno.raise_errno Errno.EIDRM "msgq"
  | None -> Errno.raise_errno Errno.EINVAL "msgq"

let msgget t _p ~key =
  let existing =
    Hashtbl.fold
      (fun qid q acc -> if q.key = key && not q.removed then Some qid else acc)
      t.msgqs None
  in
  match existing with
  | Some qid -> qid
  | None ->
      let qid = t.next_qid in
      t.next_qid <- t.next_qid + 1;
      Hashtbl.replace t.msgqs qid
        {
          key;
          messages = [];
          wait_recv = [];
          wait_send = [];
          cur_bytes = 0;
          max_bytes = 16384;
          removed = false;
        };
      qid

let msgsnd t (p : Proc.t) ~qid ~mtype payload =
  if mtype <= 0 then Errno.raise_errno Errno.EINVAL "msgsnd: mtype";
  if Bytes.length payload > (msgq_exn t qid).max_bytes then
    Errno.raise_errno Errno.EINVAL "msgsnd: message larger than queue limit";
  let rec attempt () =
    let q = msgq_exn t qid in
    if q.cur_bytes + Bytes.length payload > q.max_bytes then begin
      q.wait_send <- q.wait_send @ [ p.pid ];
      block_current t p (Sched.Msgq_full qid);
      attempt ()
    end
    else begin
      Clock.charge t.clock Cost.Msgq_send;
      Clock.charge t.clock (Cost.Copy_bytes (Bytes.length payload));
      Smod_metrics.Counter.incr m_msgq_sends;
      Smod_metrics.Counter.add m_msgq_bytes (Bytes.length payload);
      Smod_metrics.Histogram.observe m_msgq_message_bytes (float_of_int (Bytes.length payload));
      q.messages <- q.messages @ [ (mtype, payload) ];
      q.cur_bytes <- q.cur_bytes + Bytes.length payload;
      match q.wait_recv with
      | [] -> ()
      | waiter :: rest ->
          q.wait_recv <- rest;
          wakeup t waiter
    end
  in
  attempt ()

let msg_matches mtype (mt, _) =
  if mtype = 0 then true
  else if mtype > 0 then mt = mtype
  else mt <= -mtype

let take_message q mtype =
  if mtype >= 0 then begin
    (* First matching message in arrival order. *)
    let rec split acc = function
      | [] -> None
      | msg :: rest ->
          if msg_matches mtype msg then Some (msg, List.rev_append acc rest)
          else split (msg :: acc) rest
    in
    split [] q.messages
  end
  else begin
    (* Lowest type <= -mtype. *)
    let candidates = List.filter (msg_matches mtype) q.messages in
    match candidates with
    | [] -> None
    | first :: _ ->
        let best =
          List.fold_left (fun (bt, bp) (mt, pl) -> if mt < bt then (mt, pl) else (bt, bp))
            first candidates
        in
        let removed = ref false in
        let rest =
          List.filter
            (fun msg ->
              if (not !removed) && msg == best then begin
                removed := true;
                false
              end
              else true)
            q.messages
        in
        Some (best, rest)
  end

let msgrcv t (p : Proc.t) ~qid ~mtype =
  let rec attempt () =
    let q = msgq_exn t qid in
    match take_message q mtype with
    | Some ((mt, payload), rest) ->
        Clock.charge t.clock Cost.Msgq_recv;
        Clock.charge t.clock (Cost.Copy_bytes (Bytes.length payload));
        Smod_metrics.Counter.incr m_msgq_recvs;
        Smod_metrics.Counter.add m_msgq_bytes (Bytes.length payload);
        q.messages <- rest;
        q.cur_bytes <- q.cur_bytes - Bytes.length payload;
        (match q.wait_send with
        | [] -> ()
        | waiter :: others ->
            q.wait_send <- others;
            wakeup t waiter);
        (mt, payload)
    | None ->
        q.wait_recv <- q.wait_recv @ [ p.pid ];
        block_current t p (Sched.Msgq_receive qid);
        attempt ()
  in
  attempt ()

let msgq_depth t ~qid =
  match Hashtbl.find_opt t.msgqs qid with Some q -> List.length q.messages | None -> 0

let msgq_flush t ~qid =
  let q = msgq_exn t qid in
  let dropped = List.length q.messages in
  q.messages <- [];
  q.cur_bytes <- 0;
  let senders = q.wait_send in
  q.wait_send <- [];
  List.iter (wakeup t) senders;
  dropped

let msgctl_remove t _p ~qid =
  let q = msgq_exn t qid in
  q.removed <- true;
  let waiters = q.wait_recv @ q.wait_send in
  q.wait_recv <- [];
  q.wait_send <- [];
  List.iter (wakeup t) waiters

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let context_switches t = t.n_context_switches
let syscall_count t = t.n_syscalls
let core_dumps t = t.cores

(* --------------------------- dispatch rings ------------------------ *)

let ring_registration t ~pid =
  Hashtbl.find_opt t.rings pid |> Option.map (fun r -> (r.rr_base, r.rr_nslots))

let ring_stamped t ~pid =
  match Hashtbl.find_opt t.rings pid with Some r -> r.rr_stamped | None -> 0

let ring_record_stamp t ~pid ~seq ~m_id ~func_id ~allow =
  match Hashtbl.find_opt t.rings pid with
  | None -> ()
  | Some r ->
      let i = seq mod r.rr_nslots in
      r.rr_seqs.(i) <- (if allow then seq else lnot seq);
      r.rr_m_ids.(i) <- m_id;
      r.rr_func_ids.(i) <- func_id;
      if seq + 1 > r.rr_stamped then r.rr_stamped <- seq + 1

let ring_claim_next t ~pid =
  match Hashtbl.find_opt t.rings pid with
  | None -> None
  | Some r ->
      (* Walk the kernel-private claim cursor towards the stamped cursor,
         skipping slots the kernel already completed (denied/malformed)
         and stale wrapped records; only an allow record stamped for
         exactly this seq is handed to the handle. *)
      let rec go () =
        if r.rr_claimed >= r.rr_stamped then None
        else begin
          let seq = r.rr_claimed in
          r.rr_claimed <- seq + 1;
          let i = seq mod r.rr_nslots in
          if r.rr_seqs.(i) = seq then Some (seq, r.rr_m_ids.(i), r.rr_func_ids.(i)) else go ()
        end
      in
      go ()

let ring_claimable t ~pid =
  match Hashtbl.find_opt t.rings pid with
  | Some r -> r.rr_claimed < r.rr_stamped
  | None -> false

let ring_teardown t ~pid =
  if Hashtbl.mem t.rings pid then begin
    Hashtbl.remove t.rings pid;
    Smod_metrics.Counter.incr m_ring_teardowns
  end

let max_ring_slots = 1024

let sys_smod_ring_setup t (p : Proc.t) args =
  if Array.length args < 2 then Errno.raise_errno Errno.EINVAL "smod_ring_setup";
  let base = args.(0) and nslots = args.(1) in
  match Hashtbl.find_opt t.rings p.pid with
  | Some r when r.rr_base = base && r.rr_nslots = nslots -> 0 (* idempotent *)
  | Some _ ->
      Errno.raise_errno Errno.EEXIST "smod_ring_setup: geometry already pinned"
  | None ->
      if nslots <= 0 || nslots > max_ring_slots then
        Errno.raise_errno Errno.EINVAL "smod_ring_setup: slot count";
      if base land 3 <> 0 then
        Errno.raise_errno Errno.EINVAL "smod_ring_setup: alignment";
      let size = Ring.size_bytes ~nslots in
      if base < Layout.share_lo || base + size > Layout.share_hi then
        Errno.raise_errno Errno.EINVAL
          "smod_ring_setup: ring must live inside the share window";
      (* Every page of the ring must already be mapped by the caller. *)
      let check addr =
        match Aspace.find_entry p.aspace addr with
        | Some _ -> ()
        | None ->
            Errno.raise_errno Errno.EFAULT "smod_ring_setup: unmapped ring memory"
      in
      let pos = ref base in
      while !pos < base + size do
        check !pos;
        pos := !pos + Layout.page_size
      done;
      check (base + size - 1);
      (* Re-arm zeroed under kernel control: nothing the client pre-wrote
         (forged verdicts, fake cursors) survives registration. *)
      ignore (Ring.init p.aspace ~base ~nslots);
      Clock.charge t.clock (Cost.Copy_bytes size);
      Hashtbl.replace t.rings p.pid
        {
          rr_base = base;
          rr_nslots = nslots;
          rr_stamped = 0;
          rr_claimed = 0;
          rr_seqs = Array.make nslots (-1);
          rr_m_ids = Array.make nslots 0;
          rr_func_ids = Array.make nslots 0;
        };
      Smod_metrics.Counter.incr m_ring_setups;
      0

let pp_procs ppf t =
  Hashtbl.iter
    (fun pid (p : Proc.t) ->
      Format.fprintf ppf "pid %3d %-16s %a@\n" pid p.name Proc.pp_state p.state)
    t.procs

let create ?seed ?jitter ?limit_frames () =
  let clock = Clock.create ?seed ?jitter () in
  let t =
    {
      clock;
      trace = Trace.create ~render:render_event ();
      phys = Phys.create ?limit_frames ();
      procs = Hashtbl.create 64;
      next_pid = 1;
      ready_queue = Queue.create ();
      cur = None;
      last_dispatched = None;
      syscalls = Hashtbl.create 64;
      msgqs = Hashtbl.create 16;
      next_qid = 1;
      exec_hooks = [];
      syscall_filter = None;
      n_context_switches = 0;
      n_syscalls = 0;
      cores = [];
      rings = Hashtbl.create 8;
    }
  in
  register_syscall t Sysno.getpid ~name:"getpid" getpid_handler;
  register_syscall t Sysno.exit ~name:"exit" (fun _t p args ->
      sys_exit _t p (if Array.length args > 0 then args.(0) else 0));
  register_syscall t Sysno.obreak ~name:"obreak" (fun _t p args ->
      if Array.length args < 1 then Errno.raise_errno Errno.EINVAL "obreak";
      (try Aspace.obreak p.aspace args.(0)
       with Aspace.Bad_range msg -> Errno.raise_errno Errno.ENOMEM ("obreak: " ^ msg));
      0);
  register_syscall t Sysno.kill ~name:"kill" (fun t p args ->
      if Array.length args < 2 then Errno.raise_errno Errno.EINVAL "kill";
      let target_pid = args.(0) and signal = args.(1) in
      let target = proc_exn t target_pid in
      if p.uid <> 0 && target.uid <> p.uid then Errno.raise_errno Errno.EPERM "kill";
      (* Ring ordering (paper section 2): less privileged code cannot
         signal more privileged code, root or not. *)
      if target.ring < p.ring then
        Errno.raise_errno Errno.EPERM "kill: target runs in a more privileged ring";
      kill t ~pid:target_pid ~signal;
      0);
  register_syscall t Sysno.ptrace ~name:"ptrace" (fun t p args ->
      if Array.length args < 2 then Errno.raise_errno Errno.EINVAL "ptrace";
      let target = proc_exn t args.(1) in
      (* §3.1 item 4: no tracing of any process associated with a handle. *)
      if target.no_ptrace then Errno.raise_errno Errno.EPERM "ptrace: target protected";
      if target.ring < p.ring then
        Errno.raise_errno Errno.EPERM "ptrace: target runs in a more privileged ring";
      if p.uid <> 0 && target.uid <> p.uid then Errno.raise_errno Errno.EPERM "ptrace";
      target.traced_by <- Some p.pid;
      0);
  register_syscall t Sysno.smod_ring_setup ~name:"smod_ring_setup"
    sys_smod_ring_setup;
  register_syscall t Sysno.msgget ~name:"msgget" (fun t p args ->
      msgget t p ~key:args.(0));
  (* Trap-level msgsnd/msgrcv move the payload through user memory:
     msgsnd(qid, mtype, addr, len) / msgrcv(qid, mtype, addr, maxlen). *)
  register_syscall t Sysno.msgsnd ~name:"msgsnd" (fun t p args ->
      if Array.length args < 4 then Errno.raise_errno Errno.EINVAL "msgsnd";
      let len = args.(3) in
      if len < 0 then Errno.raise_errno Errno.EINVAL "msgsnd: length";
      let payload = Aspace.read_bytes p.Proc.aspace ~addr:args.(2) ~len in
      msgsnd t p ~qid:args.(0) ~mtype:args.(1) payload;
      0);
  register_syscall t Sysno.msgrcv ~name:"msgrcv" (fun t p args ->
      if Array.length args < 4 then Errno.raise_errno Errno.EINVAL "msgrcv";
      let _, payload = msgrcv t p ~qid:args.(0) ~mtype:args.(1) in
      let n = min (Bytes.length payload) args.(3) in
      if n > 0 then Aspace.write_bytes p.Proc.aspace ~addr:args.(2) (Bytes.sub payload 0 n);
      n);
  t
